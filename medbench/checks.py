"""Output checks made apart from the program.

Each check recomputes a result by its own route, or tests a property the
method must have; none compares against a stored copy of earlier output.
A failed check raises `CheckFailed`.
"""

import numpy as np


class CheckFailed(Exception):
    pass


def _require(ok: bool, message: str) -> None:
    if not ok:
        raise CheckFailed(message)


def kkt(X, atoms, codes, converged, lam: float, tol: float) -> None:
    """Rows flagged converged satisfy the LASSO optimality conditions,
    recomputed from corr = 2 D^T (x - D y):

        active k:    |corr_k - lam sign(y_k)| <= tol
        inactive k:  |corr_k| <= lam + tol

    The slack of 1e-9 covers the solver tracking its residual by updates
    while this check forms it afresh."""
    conv = np.asarray(converged, dtype=bool)
    if not conv.any():
        return
    Y = np.asarray(codes)[conv]
    R = np.asarray(X)[conv] - Y @ atoms.T
    corr = 2.0 * R @ atoms
    active = Y != 0.0
    slack = tol + 1e-9
    bad_active = np.abs(corr - lam * np.sign(Y))[active]
    bad_inactive = np.abs(corr)[~active] - lam
    worst = max(bad_active.max(initial=0.0), bad_inactive.max(initial=0.0))
    _require(worst <= slack, f"converged code violates KKT by {worst:.3e} (tol {tol:.1e})")


def pooled(values, codes) -> None:
    """A pooled clip feature is the elementwise max over the clip's codes."""
    _require(
        np.array_equal(np.asarray(values), np.max(np.asarray(codes), axis=0)),
        "pooled feature differs from np.max over the clip's codes",
    )


def whitened_identity(Z, tol: float = 1e-3) -> None:
    """Whitened training rows have identity sample covariance."""
    Z = np.asarray(Z)
    Zc = Z - Z.mean(axis=0)
    cov = Zc.T @ Zc / (Z.shape[0] - 1)
    worst = float(np.max(np.abs(cov - np.eye(Z.shape[1]))))
    _require(worst <= tol, f"whitened covariance is {worst:.3e} away from identity")


def dictionary(objectives, atoms) -> None:
    """Per-epoch objectives never increase and every atom has unit norm."""
    obj = np.asarray(objectives, dtype=np.float64)
    rises = np.flatnonzero(obj[1:] > obj[:-1] * (1.0 + 1e-9))
    _require(rises.size == 0, f"dictionary objective rose after epochs {(rises + 1).tolist()}: {obj.tolist()}")
    norms = np.sqrt(np.sum(np.asarray(atoms) ** 2, axis=0))
    _require(np.all(np.abs(norms - 1.0) <= 1e-9), "dictionary atom off unit norm")


def em(log_likelihoods, reseeds: int) -> None:
    """EM log-likelihood does not decrease except where a component was
    re-seeded, so there are at most `reseeds` decreases."""
    ll = np.asarray(log_likelihoods, dtype=np.float64)
    drops = int(np.count_nonzero(ll[1:] < ll[:-1] - 1e-9 * np.abs(ll[:-1])))
    _require(drops <= reseeds, f"EM log-likelihood fell {drops} times with {reseeds} re-seeds")


def float32_roundtrip(loaded, original) -> None:
    """A storage round trip returns exactly the float32 cast of its input."""
    expect = np.asarray(original, dtype=np.float64).astype(np.float32).astype(np.float64)
    _require(np.array_equal(np.asarray(loaded), expect), "storage round trip differs from float32 cast")


def cuts_found(keyframes, cuts) -> None:
    """Every planted scene cut is detected as a keyframe."""
    missing = sorted(set(cuts) - set(keyframes))
    _require(not missing, f"planted scene cuts {missing} not found as keyframes {list(keyframes)}")


def reference_ap(scores, relevance, clip_ids) -> float:
    """Non-interpolated AP, ranking by score descending with ties broken by
    clip id ascending, by sorting and cumulative sums."""
    scores = np.asarray(scores, dtype=np.float64)
    rel = np.asarray(relevance, dtype=np.float64)
    order = np.lexsort((np.asarray(clip_ids), -scores))
    rel = rel[order]
    if rel.sum() == 0:
        return 0.0
    precision = np.cumsum(rel) / np.arange(1, rel.size + 1)
    return float(np.sum(precision * rel) / rel.sum())


def chance_ap(n_items: int, n_relevant: int) -> float:
    """Expected AP of a uniformly random ranking:
    (1/N) [H_N + (R-1)/(N-1) (N - H_N)]."""
    n, r = n_items, n_relevant
    h = float(np.sum(1.0 / np.arange(1, n + 1)))
    if n == 1:
        return float(r)
    return (h + (r - 1) / (n - 1) * (n - h)) / n


def ap_matches(ap: float, scores, relevance, clip_ids) -> None:
    ref = reference_ap(scores, relevance, clip_ids)
    _require(abs(ap - ref) <= 1e-12, f"AP {ap!r} differs from recomputed {ref!r}")


def above_chance(arm: str, map_value: float, chance: float) -> None:
    _require(map_value > chance, f"{arm} mAP {map_value:.4f} is not above chance {chance:.4f}")
