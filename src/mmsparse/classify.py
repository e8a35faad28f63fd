"""Linear 1-vs-all SVM training with cross-validated hyperparameters.

The per-event problem is the primal L2-regularized hinge loss

    J(w, b) = 1/2 ||w||^2 + c * sum_i max(0, 1 - y_i (w^T x_i + b))

with an explicit unregularized bias. It is solved exactly through its
dual in beta = y * alpha (Platt's SMO in the form of Fan, Chen & Lin, 2005),

    min_b  1/2 b^T K b - y^T b,   min(0, y_i c) <= b_i <= max(0, y_i c),
    sum_i b_i = 0,   K = X X^T,

first by deterministic most-violating-pair coordinate updates (each step is
an exact two-variable minimization, so the dual objective is monotonically
non-increasing). These updates converge slowly, and on near-duplicate
inputs they can alternate between two pairs without closing the gap, so
they are only a warm start: a problem still above its tolerance after
_PAIR_STEPS of them gets an exact active-set finish: Newton steps on the
free set within sum(b) = 0, a ratio test at the box, and freeing of the
worst bound violator. A step budget, max_steps, counts both kinds of
step, and a model reports converged=False only when that budget runs out
with the dual's max-violating-pair gap still at or above its tolerance.
The primal solution is w = X^T b with the bias read off the free support
vectors. Where none is free, every bias in an interval is optimal, and
the one returned is the midpoint of the max-violating pair, which lies in
that interval once the gap is closed.
Training is deterministic: pair selection breaks ties by lowest index
and uses no randomness (the seed parameter only feeds fold shuffling in
cross-validation).

Problems that share the Gram matrix train together: the SVMs of every
event in train_event_models, and of every (c, event) pair of one
cross-validation fold, take their pair updates in lockstep, each with the
arithmetic of a one-problem loop, so each one's iterates are its own.
"""

from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from .errors import InputError, _as_finite, _check_count, _check_real, _check_type, _freeze
from .rng import make_rng

__all__ = [
    "LinearSvm",
    "EventModel",
    "CvResult",
    "decision_score",
    "predict_event",
    "train_event_models",
    "stratified_folds",
    "cross_validate",
]


@dataclass(frozen=True)
class LinearSvm:
    """Trained separating hyperplane for one event.

    `converged` is False when training spent its step budget with the
    max-violating-pair gap of the dual in beta = y * alpha still at or
    above its tolerance.
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


# Pair updates a problem takes before the exact finish, unless max_steps is
# smaller. They are only a warm start: a lockstep batch runs until its
# slowest problem stops, and _finish closes a problem in a few steps. A
# replay of the 60 batches of the benchmark's train rounds and detect
# set-ups at seeds 1-3 (24-42 rows a problem; one BLAS thread, 2-core
# host, best of 9) took 0.30 s at 50 pair updates, 0.33 s at 100, 0.45 s
# at 200 and 0.78 s at 1000. 50 sends every problem to _finish, whose
# steps cost O(|F|^3) in the free set F against O(n) for a pair update,
# for a gain of about 6 ms a train round; the timing covers n <= 42 only,
# so re-time it on larger training sets.
_PAIR_STEPS = 100

_TOL = 1e-9  # the max-violating-pair gap below which an SVM has converged


def _smo_batch(
    gram: np.ndarray,
    Y: np.ndarray,
    cs: np.ndarray,
    tol: float,
    max_steps: int,
) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Most-violating-pair dual coordinate optimization in beta = y * alpha
    for every row of the label matrix Y (problems, n) at its cost in cs, all
    over one Gram matrix; returns (betas, biases, gaps) by row, where gap is
    the max-violating-pair gap at the returned beta.

    Every problem takes the pair updates of _pairs. One still at or above
    tol after min(max_steps, _PAIR_STEPS) of them, or stuck, gets _finish
    for the rest of its max_steps. The bias is the mean of y - K beta over
    the free set (see _free), or the midpoint of the max-violating pair's
    values when no beta is free: then the optimal bias is an interval
    rather than a point, and the midpoint lies in it once the gap is below
    tol.
    """
    P, n = Y.shape
    cs = np.asarray(cs, dtype=float)
    lo = np.minimum(0.0, Y * cs[:, None])
    hi = np.maximum(0.0, Y * cs[:, None])
    betas = np.zeros((P, n))
    mgs = Y.copy()  # y - K beta, row by row
    gaps, taken = _pairs(gram, lo, hi, betas, mgs, tol, min(max_steps, _PAIR_STEPS))
    biases = np.empty(P)
    for p in range(P):
        if gaps[p] >= tol and taken[p] < max_steps:
            betas[p], mgs[p], gaps[p] = _finish(
                gram, Y[p], cs[p], lo[p], hi[p], betas[p], tol, max_steps - taken[p])
        biases[p] = _bias(betas[p], mgs[p], Y[p], cs[p], lo[p], hi[p])
    return betas, biases, gaps


def _pairs(gram, lo, hi, betas, mgs, tol, steps) -> Tuple[np.ndarray, np.ndarray]:
    """At most `steps` most-violating-pair updates of each row of betas
    (problems, n) within its box [lo, hi], with mgs = y - K beta by row;
    betas and mgs are updated in place. Returns (gaps, taken): the
    max-violating-pair gap of each row where it stopped and the updates it
    took.

    The rows step in lockstep, each by the arithmetic of a one-problem loop,
    and a row leaves when its gap falls below tol or no pair can move; its
    iterates are those of that loop, bit for bit.

    Each pair step moves beta_i up and beta_j down by the same t, so
    sum(beta) stays 0 up to rounding. Neither candidate set can therefore be
    empty while both classes are present: all beta at hi would sum to
    c * (#positives) > 0, all at lo to -c * (#negatives) < 0.
    """
    P, n = betas.shape
    gaps = np.empty(P)
    taken = np.zeros(P, dtype=np.int64)
    live = np.arange(P)
    beta, mg, l, h = betas.copy(), mgs.copy(), lo, hi
    diag = np.diag(gram).copy()
    cols = np.ascontiguousarray(gram.T)  # row i holds column i of gram
    at = np.arange(P) * n  # flat offset of each live row
    for step in range(steps + 1):
        mg_up = np.where(beta < h, mg, -np.inf)
        mg_low = np.where(beta > l, mg, np.inf)
        i = np.argmax(mg_up, axis=1)
        j = np.argmin(mg_low, axis=1)
        fi, fj = at + i, at + j
        gap = mg_up.take(fi) - mg_low.take(fj)
        quad = np.maximum(diag[i] + diag[j] - 2.0 * gram.take(i * n + j), 1e-12)
        bi, bj, hi_i, lo_j = beta.take(fi), beta.take(fj), h.take(fi), l.take(fj)
        t = np.minimum(np.minimum(gap / quad, hi_i - bi), bj - lo_j)
        stop = (gap < tol) | (t == 0.0) if step < steps else np.ones(live.size, dtype=bool)
        if stop.any():
            out = live[stop]
            betas[out], mgs[out], gaps[out], taken[out] = beta[stop], mg[stop], gap[stop], step
            go = ~stop
            live, beta, mg, l, h = live[go], beta[go], mg[go], l[go], h[go]
            if live.size == 0:
                break
            i, j, t, bi, bj, hi_i, lo_j = i[go], j[go], t[go], bi[go], bj[go], hi_i[go], lo_j[go]
            at = np.arange(live.size) * n
            fi, fj = at + i, at + j
        np.put(beta, fi, np.minimum(bi + t, hi_i))
        np.put(beta, fj, np.maximum(bj - t, lo_j))
        # Each column scaled by t before the difference, as y * grad moves
        # in the alpha form, so both forms round alike step for step.
        mg -= cols[i] * t[:, None] - cols[j] * t[:, None]
    return gaps, taken


def _pair_gap(beta, mg, lo, hi) -> Tuple[float, float, float]:
    """(gap, top, bottom): the max-violating-pair gap top - bottom, with top
    the largest y - K beta that may rise and bottom the least that may fall."""
    top = float(np.max(np.where(beta < hi, mg, -np.inf)))
    bottom = float(np.min(np.where(beta > lo, mg, np.inf)))
    return top - bottom, top, bottom


def _free(beta, y, c) -> np.ndarray:
    """Where alpha = y * beta lies more than 1e-12 c inside (0, c), so that
    rounding residues at a bound do not count as free."""
    alpha = y * beta
    return (alpha > 1e-12 * c) & (alpha < c * (1.0 - 1e-12))


def _bias(beta, mg, y, c, lo, hi) -> float:
    """The bias of one problem, by the rule _smo_batch states."""
    free = _free(beta, y, c)
    if free.any():
        return float(np.mean(mg[free]))
    _, top, bottom = _pair_gap(beta, mg, lo, hi)
    return float(0.5 * (top + bottom))


# Eigenvalues of the reduced Hessian below this share of the largest count
# as zero curvature in _finish.
_CURVATURE_RTOL = 1e-12


def _finish(gram, y, c, lo, hi, beta, tol, budget):
    """Exact active-set finish of the dual in beta from a pair-update
    iterate, in at most `budget` steps; returns (beta, y - K beta, gap).

    beta within 1e-12 c of a bound is snapped onto it, and the rest make up
    the working set F. Each step minimizes over F within sum(p) = 0: the
    Newton step in an orthonormal basis Z of the sums-to-zero subspace, by
    eigh of Z^T K_FF Z with eigenvalues below _CURVATURE_RTOL of the largest
    taken as 0. Where the gradient has a part along those zero-curvature
    directions that moves y - K beta by more than tol / 4, the step follows
    that descent direction to the box instead. A ratio test stops the step
    at the first bound, which fixes that variable there. At the minimizer
    of a face, y - K beta is recomputed afresh; the finish stops when the
    gap is below tol, and otherwise frees the bound variable that violates
    the most against b = mean over F of y - K beta, when that violation
    exceeds the spread over F (else it refines on the same face).
    """
    beta = beta.copy()
    snap = 1e-12 * c
    beta[beta - lo <= snap] = lo[beta - lo <= snap]
    beta[hi - beta <= snap] = hi[hi - beta <= snap]
    work = (beta > lo) & (beta < hi)
    mg = y - gram @ beta
    gap = _pair_gap(beta, mg, lo, hi)[0]
    used = 0
    while used < budget and gap >= tol:
        used += 1
        f = np.flatnonzero(work)
        p = np.zeros(f.size)
        reach = 1.0
        if f.size >= 2:
            Z = np.linalg.qr(np.ones((f.size, 1)), mode="complete")[0][:, 1:]
            e, V = np.linalg.eigh(Z.T @ gram[np.ix_(f, f)] @ Z)
            curved = e > _CURVATURE_RTOL * max(float(e[-1]), 0.0)
            r = V.T @ (Z.T @ mg[f])  # the negative gradient, reduced
            flat = Z @ (V[:, ~curved] @ r[~curved])
            if np.max(np.abs(flat), initial=0.0) > 0.25 * tol:
                p, reach = flat, np.inf
            else:
                p = Z @ (V[:, curved] @ (r[curved] / e[curved]))
        room = np.where(p > 0, hi[f] - beta[f], np.where(p < 0, lo[f] - beta[f], np.inf))
        with np.errstate(divide="ignore", invalid="ignore"):
            ratio = np.where(p != 0, room / p, np.inf)
        block = int(np.argmin(ratio)) if f.size else -1
        step = min(reach, float(ratio[block])) if f.size else reach
        beta[f] = np.clip(beta[f] + step * p, lo[f], hi[f])
        if step < reach:
            v = f[block]
            beta[v] = hi[v] if p[block] > 0 else lo[v]
            work[v] = False
        mg = y - gram @ beta
        gap, top, bottom = _pair_gap(beta, mg, lo, hi)
        if step < reach or gap < tol:
            continue
        b = float(np.mean(mg[work])) if work.any() else 0.5 * (top + bottom)
        spread = float(np.max(np.abs(mg[work] - b), initial=0.0))
        viol = np.where(work, -np.inf, np.where(beta < hi, mg - b, b - mg))
        v = int(np.argmax(viol))
        if viol[v] > spread:
            work[v] = True
    return beta, mg, gap


def _train_all(X: np.ndarray, Y: np.ndarray, cs: Sequence[float],
               max_steps: Optional[int] = None) -> List[LinearSvm]:
    """One LinearSvm per row of the +-1 label matrix Y, row p at cost
    cs[p], all trained by one lockstep SMO over K = X X^T in at most
    max_steps steps (default max(200 n, 20000)). Checks the settings and
    that every row of Y holds both classes."""
    for c in cs:
        _check_real(c, "c", gt=0)
    if max_steps is not None:
        _check_count(max_steps, "max_steps")
    if not np.all((Y == 1.0).any(axis=1) & (Y == -1.0).any(axis=1)):
        raise InputError("training requires at least one example of each class, "
                         "and 1-vs-all training at least two distinct labels")
    budget = max_steps if max_steps is not None else max(200 * X.shape[0], 20000)
    betas, biases, gaps = _smo_batch(X @ X.T, Y, np.asarray(cs, dtype=float), _TOL, budget)
    return [
        LinearSvm(weights=X.T @ beta, bias=float(bias), c=c, converged=bool(gap < _TOL))
        for beta, bias, c, gap in zip(betas, biases, cs, gaps)
    ]


def decision_score(m: LinearSvm, x) -> float:
    """w^T x + b; the sign is the predicted label."""
    _check_type(m, LinearSvm, "m")
    v = _as_finite(x, 1, m.weights.shape[0])
    return float(m.weights @ v + m.bias)


def predict_event(em: EventModel, x) -> str:
    """Event id with the maximal decision score; ties go to the lowest id."""
    _check_type(em, EventModel, "em")
    best_id = None
    best_score = None
    for event_id, model in sorted(zip(em.event_ids, em.models), key=lambda p: p[0]):
        s = decision_score(model, x)
        if best_score is None or s > best_score:
            best_id, best_score = event_id, s
    return best_id


def _one_vs_all(labels: Sequence[str], event_ids: Sequence[str]) -> np.ndarray:
    """+-1 label matrix, one row per event id."""
    return np.where(np.asarray(labels)[None, :] == np.asarray(event_ids)[:, None], 1.0, -1.0)


def train_event_models(
    x,
    event_labels: Sequence,
    c: float,
    seed: int = 0,
) -> EventModel:
    """1-vs-all training: one binary SVM per distinct event label, with
    every other label (including any background label) as negatives, all
    trained together by _train_all in one lockstep SMO. `seed` is accepted
    and not used: training draws nothing at random."""
    X = _as_finite(x, 2, name="features", nonempty=1)
    labels = [str(v) for v in event_labels]
    if len(labels) != X.shape[0]:
        raise InputError("one label per feature row required")
    event_ids = sorted(set(labels))
    models = _train_all(X, _one_vs_all(labels, event_ids), [c] * len(event_ids))
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

    # every (c, event) SVM of a fold trains in one lockstep SMO
    accs = [[] for _ in grid]
    for fold in range(folds_used):
        val = assignment == fold
        train = ~val
        fold_labels = [l for l, t in zip(labels, train) if t]
        event_ids = tuple(sorted(set(fold_labels)))
        Y = _one_vs_all(fold_labels, event_ids)
        models = _train_all(X[train], np.tile(Y, (len(grid), 1)),
                            [c for c in grid for _ in event_ids])
        for g, c in enumerate(grid):
            em = EventModel(event_ids, tuple(models[g * len(event_ids):(g + 1) * len(event_ids)]))
            correct = sum(
                predict_event(em, X[i]) == labels[i] for i in np.flatnonzero(val)
            )
            accs[g].append(correct / int(val.sum()))
    mean_acc = {c: float(np.mean(a)) for c, a in zip(grid, accs)}

    best_acc = max(mean_acc.values())
    best_c = min(c for c, a in mean_acc.items() if a == best_acc)
    return CvResult(best_c=best_c, mean_accuracy=mean_acc, folds_used=folds_used, reduced=reduced)
