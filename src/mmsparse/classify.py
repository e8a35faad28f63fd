"""Linear 1-vs-all SVM training with cross-validated hyperparameters.

The per-event problem is the primal L2-regularized hinge loss

    J(w, b) = 1/2 ||w||^2 + c * sum_i max(0, 1 - y_i (w^T x_i + b))

with an explicit unregularized bias. It is solved exactly through its
dual in beta = y * alpha (Platt's SMO in the form of Fan, Chen & Lin, 2005),

    min_b  1/2 b^T K b - y^T b,   min(0, y_i c) <= b_i <= max(0, y_i c),
    sum_i b_i = 0,   K = X X^T,

by deterministic most-violating-pair coordinate updates (each step is an
exact two-variable minimization, so the dual objective is monotonically
non-increasing). The primal solution is w = X^T b with the bias read off
the free support vectors. Training is deterministic: pair selection
breaks ties by lowest index and uses no randomness (the seed parameter
only feeds fold shuffling in cross-validation).
"""

from dataclasses import dataclass
from typing import Dict, Optional, Sequence, Tuple

import numpy as np

from .errors import InputError, _as_finite, _check_count, _check_real, _freeze
from .rng import make_rng

__all__ = [
    "LinearSvm",
    "EventModel",
    "CvResult",
    "train_svm",
    "decision_score",
    "predict_event",
    "train_event_models",
    "stratified_folds",
    "cross_validate",
]


@dataclass(frozen=True)
class LinearSvm:
    """Trained separating hyperplane for one event.

    `converged` is False when training stopped with the max-violating-pair
    gap of the dual in beta = y * alpha still at or above its tolerance
    (step budget exhausted, or no pair could move).
    """

    weights: np.ndarray
    bias: float
    c: float
    converged: bool = True

    def __post_init__(self):
        _check_real(self.bias, "bias")
        _check_real(self.c, "c", gt=0)
        _freeze(self, "weights", _as_finite(self.weights, 1, name="weights"))


@dataclass(frozen=True)
class EventModel:
    """One LinearSvm per event id, all over the same feature space."""

    event_ids: Tuple[str, ...]
    models: Tuple[LinearSvm, ...]

    def __post_init__(self):
        if len(self.event_ids) != len(self.models) or not self.models:
            raise InputError("need one model per event id")
        dims = {m.weights.shape[0] for m in self.models}
        if len(dims) != 1:
            raise InputError(f"inconsistent feature dimensions across events: {dims}")
        object.__setattr__(self, "event_ids", tuple(str(e) for e in self.event_ids))


@dataclass(frozen=True)
class CvResult:
    """Cross-validation outcome: chosen c and the per-c mean accuracy."""

    best_c: float
    mean_accuracy: Dict[float, float]
    folds_used: int
    reduced: bool


def _smo(
    gram: np.ndarray,
    y: np.ndarray,
    c: float,
    tol: float,
    max_steps: int,
) -> Tuple[np.ndarray, float, float]:
    """Most-violating-pair dual coordinate optimization in beta = y * alpha
    within lo <= beta <= hi, over at most max_steps pair updates; returns
    (beta, bias, gap), where gap is the max-violating-pair gap at the
    returned beta. The bias is the mean of y - K beta over the free set
    (alpha = y * beta more than 1e-12 c inside (0, c), so that rounding
    residues at a bound do not count), or the midpoint of the last pair's values
    when no beta is free.

    Each step moves beta_i up and beta_j down by the same t, so sum(beta)
    stays 0 up to rounding. Neither candidate set can therefore be empty
    while both classes are present: all beta at hi would sum to
    c * (#positives) > 0, all at lo to -c * (#negatives) < 0.
    """
    lo = np.minimum(0.0, y * c)
    hi = np.maximum(0.0, y * c)
    beta = np.zeros(y.shape[0])
    mg = y.copy()  # y - K beta
    for step in range(max_steps + 1):
        up = beta < hi
        low = beta > lo
        mg_up = np.where(up, mg, -np.inf)
        mg_low = np.where(low, mg, np.inf)
        i = int(np.argmax(mg_up))
        j = int(np.argmin(mg_low))
        gap = float(mg_up[i] - mg_low[j])
        if gap < tol or step == max_steps:
            break
        quad = max(gram[i, i] + gram[j, j] - 2.0 * gram[i, j], 1e-12)
        t = min(gap / quad, hi[i] - beta[i], beta[j] - lo[j])
        if t == 0.0:
            break
        beta[i] = min(beta[i] + t, hi[i])
        beta[j] = max(beta[j] - t, lo[j])
        # Each column scaled by t before the difference, as y * grad moves
        # in the alpha form, so both forms round alike step for step.
        mg -= gram[:, i] * t - gram[:, j] * t
    alpha = y * beta
    free = (alpha > 1e-12 * c) & (alpha < c * (1.0 - 1e-12))
    bias = np.mean(mg[free]) if free.any() else 0.5 * (mg_up[i] + mg_low[j])
    return beta, float(bias), gap


def _as_labels(labels, rows: int) -> np.ndarray:
    """labels as one +1 or -1 per row, or InputError."""
    y = _as_finite(labels, 1, name="labels")
    if y.shape[0] != rows:
        raise InputError(f"{y.shape[0]} labels for {rows} rows")
    if not np.all(np.abs(y) == 1.0):
        raise InputError("labels must be +1 or -1")
    return y


def train_svm(
    x,
    labels,
    c: float,
    seed: int = 0,
    tol: float = 1e-9,
    max_steps: Optional[int] = None,
) -> LinearSvm:
    """Train one binary SVM on +/-1 labels.

    The SMO runs at most `max_steps` pair updates (default
    max(200 n, 20000)) on the dual in beta = y * alpha, and the weights
    are X^T beta. When the returned model has converged=True it is the
    optimizer of the hinge objective up to `tol` in the dual's
    max-violating-pair gap; with converged=False the gap was still >= `tol`
    when SMO stopped, and the model is its last iterate. The result does
    not depend on `seed`.
    """
    _check_real(c, "c", gt=0)
    _check_real(tol, "tol", gt=0)
    if max_steps is not None:
        _check_count(max_steps, "max_steps")
    X = _as_finite(x, 2, name="features", nonempty=1)
    y = _as_labels(labels, X.shape[0])
    if np.all(y == 1.0) or np.all(y == -1.0):
        raise InputError("training requires at least one example of each class")

    budget = max_steps if max_steps is not None else max(200 * X.shape[0], 20000)
    beta, bias, gap = _smo(X @ X.T, y, c, tol, budget)
    return LinearSvm(weights=X.T @ beta, bias=bias, c=c, converged=gap < tol)


def decision_score(m: LinearSvm, x) -> float:
    """w^T x + b; the sign is the predicted label."""
    v = _as_finite(x, 1, m.weights.shape[0])
    return float(m.weights @ v + m.bias)


def predict_event(em: EventModel, x) -> str:
    """Event id with the maximal decision score; ties go to the lowest id."""
    best_id = None
    best_score = None
    for event_id, model in sorted(zip(em.event_ids, em.models), key=lambda p: p[0]):
        s = decision_score(model, x)
        if best_score is None or s > best_score:
            best_id, best_score = event_id, s
    return best_id


def train_event_models(
    x,
    event_labels: Sequence,
    c: float,
    seed: int = 0,
    tol: float = 1e-9,
) -> EventModel:
    """1-vs-all training: one binary SVM per distinct event label, with
    every other label (including any background label) as negatives."""
    X = _as_finite(x, 2, name="features", nonempty=1)
    labels = [str(v) for v in event_labels]
    if len(labels) != X.shape[0]:
        raise InputError("one label per feature row required")
    event_ids = sorted(set(labels))
    if len(event_ids) < 2:
        raise InputError("need at least two distinct labels to train 1-vs-all models")
    models = []
    for event in event_ids:
        y = np.array([1.0 if v == event else -1.0 for v in labels])
        models.append(train_svm(X, y, c, seed=seed, tol=tol))
    return EventModel(event_ids=tuple(event_ids), models=tuple(models))


def stratified_folds(labels: Sequence, folds: int, seed: int) -> Tuple[np.ndarray, int, bool]:
    """Assign each index to a validation fold, stratified by label.

    Returns (fold_id per index, folds_used, reduced). folds_used shrinks
    to the smallest class count when a class has fewer examples than the
    requested fold count.
    """
    labels = [str(v) for v in labels]
    _check_count(folds, "folds", ge=2)
    if not labels:
        raise InputError("cross-validation needs labels")
    counts: Dict[str, int] = {}
    for v in labels:
        counts[v] = counts.get(v, 0) + 1
    min_count = min(counts.values())
    if min_count < 2:
        raise InputError("every class needs >= 2 examples for cross-validation")
    folds_used = min(folds, min_count)
    reduced = folds_used < folds

    rng = make_rng(seed, "cv-folds")
    assignment = np.empty(len(labels), dtype=np.int64)
    for value in sorted(counts):
        idx = np.array([i for i, v in enumerate(labels) if v == value])
        idx = idx[rng.permutation(idx.size)]
        for pos, i in enumerate(idx):
            assignment[i] = pos % folds_used
    return assignment, folds_used, reduced


def cross_validate(
    x,
    labels: Sequence,
    c_grid: Sequence[float],
    folds: int = 5,
    seed: int = 0,
) -> CvResult:
    """Pick c from a grid by mean validation accuracy over stratified
    folds; ties prefer the smaller c."""
    X = _as_finite(x, 2, name="features", nonempty=1)
    grid = list(c_grid)
    if not grid:
        raise InputError("c grid must not be empty")
    for c in grid:
        _check_real(c, "c grid value", gt=0)
    grid = [float(c) for c in grid]
    labels = [str(v) for v in labels]
    if len(labels) != X.shape[0]:
        raise InputError(f"{len(labels)} labels for {X.shape[0]} rows")
    assignment, folds_used, reduced = stratified_folds(labels, folds, seed)

    mean_acc: Dict[float, float] = {}
    for c in grid:
        accs = []
        for fold in range(folds_used):
            val = assignment == fold
            train = ~val
            em = train_event_models(X[train], [l for l, t in zip(labels, train) if t], c, seed=seed)
            correct = sum(
                predict_event(em, X[i]) == labels[i] for i in np.flatnonzero(val)
            )
            accs.append(correct / int(val.sum()))
        mean_acc[c] = float(np.mean(accs))

    best_acc = max(mean_acc.values())
    best_c = min(c for c, a in mean_acc.items() if a == best_acc)
    return CvResult(best_c=best_c, mean_accuracy=mean_acc, folds_used=folds_used, reduced=reduced)
