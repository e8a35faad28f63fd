"""Diagonal-covariance Gaussian mixtures fit by EM, plus posterior-vector
supervectors for clip-level features.

The E-step works entirely in the log domain:

    log p(x | m) = -1/2 sum_j [ log(2 pi v_mj) + (x_j - mu_mj)^2 / v_mj ]
    r_m(x) = softmax_m( log w_m + log p(x | m) )

so responsibilities are stable under any common shift of the component
log densities. The M-step is the standard weighted update with every
variance floored at a fixed fraction of the average feature variance.
Components that lose all responsibility mass are re-seeded from the
point the current mixture models worst.
"""

import math
from dataclasses import dataclass, field
from typing import List, Optional, Sequence, Tuple

import numpy as np

from .errors import InputError
from .features import PooledFeature
from .rng import make_rng

__all__ = [
    "GaussianMixture",
    "EmStats",
    "fit_gmm_em",
    "posteriors",
    "gmm_supervector",
]


@dataclass(frozen=True)
class GaussianMixture:
    """Mixture weights, means, and per-dimension variances."""

    weights: np.ndarray
    means: np.ndarray
    variances: np.ndarray
    variance_floor: float

    def __post_init__(self):
        w = np.asarray(self.weights, dtype=np.float64)
        mu = np.asarray(self.means, dtype=np.float64)
        var = np.asarray(self.variances, dtype=np.float64)
        if w.ndim != 1 or mu.ndim != 2 or var.shape != mu.shape:
            raise InputError("inconsistent mixture parameter shapes")
        if w.shape[0] != mu.shape[0]:
            raise InputError(
                f"{w.shape[0]} weights for {mu.shape[0]} components"
            )
        if abs(float(w.sum()) - 1.0) > 1e-10 or np.any(w < 0):
            raise InputError("weights must be nonnegative and sum to 1")
        if self.variance_floor <= 0:
            raise InputError("variance_floor must be positive")
        if np.any(var < self.variance_floor * (1 - 1e-12)):
            raise InputError("variances fall below the variance floor")
        for arr in (w, mu, var):
            arr.setflags(write=False)
        object.__setattr__(self, "weights", w)
        object.__setattr__(self, "means", mu)
        object.__setattr__(self, "variances", var)

    @property
    def n_components(self) -> int:
        return self.weights.shape[0]

    @property
    def dim(self) -> int:
        return self.means.shape[1]


@dataclass
class EmStats:
    """Fit diagnostics: per-iteration log-likelihood, re-seed count,
    convergence flag."""

    log_likelihood_per_iter: List[float] = field(default_factory=list)
    reseeds: int = 0
    converged: bool = False


def _log_densities(weights, means, variances, X) -> np.ndarray:
    """(rows, components) matrix of log w_m + log N(x | mu_m, v_m)."""
    log_det = np.sum(np.log(variances), axis=1)
    diff = X[:, None, :] - means[None, :, :]
    maha = np.sum(diff * diff / variances[None, :, :], axis=2)
    d = means.shape[1]
    return np.log(weights)[None, :] - 0.5 * (
        d * math.log(2.0 * math.pi) + log_det[None, :] + maha
    )


def _logsumexp(a: np.ndarray, axis: int) -> np.ndarray:
    amax = np.max(a, axis=axis, keepdims=True)
    return amax + np.log(np.sum(np.exp(a - amax), axis=axis, keepdims=True))


def _kmeanspp_means(X: np.ndarray, m: int, rng: np.random.Generator) -> np.ndarray:
    """Seeded k-means++-style selection of m rows as initial means."""
    n = X.shape[0]
    chosen = [int(rng.integers(n))]
    d2 = np.sum((X - X[chosen[0]]) ** 2, axis=1)
    for _ in range(1, m):
        total = float(d2.sum())
        if total <= 0:
            chosen.append(int(rng.integers(n)))
        else:
            chosen.append(int(rng.choice(n, p=d2 / total)))
        d2 = np.minimum(d2, np.sum((X - X[chosen[-1]]) ** 2, axis=1))
    return X[chosen].copy()


def fit_gmm_em(
    x,
    m: int,
    seed: int = 0,
    max_iter: int = 100,
    tol: float = 1e-6,
    floor_fraction: float = 1e-4,
) -> Tuple[GaussianMixture, EmStats]:
    """Fit an m-component diagonal GMM by EM.

    Initialization picks means k-means++ style from the data rows; the
    variance floor is floor_fraction times the average per-dimension
    sample variance. Stops when the relative log-likelihood change drops
    below tol. Returns the mixture and per-iteration diagnostics.
    """
    X = np.asarray(x, dtype=np.float64)
    if X.ndim != 2:
        raise InputError(f"training data must be 2-D, got shape {X.shape}")
    n, d = X.shape
    if m < 1:
        raise InputError(f"component count must be >= 1, got {m}")
    if n < m:
        raise InputError(f"need at least {m} rows to fit {m} components, got {n}")
    if not np.all(np.isfinite(X)):
        raise InputError("training data contains non-finite values")

    global_var = np.var(X, axis=0)
    floor = max(float(floor_fraction * np.mean(global_var)), 1e-12)

    rng = make_rng(seed, "gmm-init")
    weights = np.full(m, 1.0 / m)
    means = _kmeanspp_means(X, m, rng)
    variances = np.maximum(np.tile(global_var, (m, 1)), floor)
    if not np.all(variances > 0):
        variances = np.maximum(variances, floor)

    stats = EmStats()
    prev_ll: Optional[float] = None

    for _ in range(max_iter):
        log_joint = _log_densities(weights, means, variances, X)
        lse = _logsumexp(log_joint, axis=1)
        ll = float(lse.sum())
        stats.log_likelihood_per_iter.append(ll)
        resp = np.exp(log_joint - lse)

        nk = resp.sum(axis=0)
        dead = np.flatnonzero(nk < 1e-10)
        if dead.size:
            worst = int(np.argmin(lse[:, 0]))
            for comp in dead:
                means[comp] = X[worst]
                variances[comp] = np.maximum(global_var, floor)
                nk[comp] = 1.0
                stats.reseeds += 1
            weights = nk / nk.sum()
            prev_ll = None  # monotonicity restarts after a re-seed
            continue

        weights = nk / n
        means = (resp.T @ X) / nk[:, None]
        ex2 = (resp.T @ (X * X)) / nk[:, None]
        variances = np.maximum(ex2 - means * means, floor)

        if prev_ll is not None:
            rel = abs(ll - prev_ll) / max(abs(prev_ll), 1e-12)
            if rel < tol:
                stats.converged = True
                break
        prev_ll = ll

    mixture = GaussianMixture(
        weights=weights, means=means, variances=variances, variance_floor=floor
    )
    return mixture, stats


def posteriors(g: GaussianMixture, x) -> np.ndarray:
    """Component responsibilities for one vector; nonnegative, sums to 1."""
    v = np.asarray(x, dtype=np.float64)
    if v.ndim != 1 or v.shape[0] != g.dim:
        raise InputError(f"input has shape {v.shape}, expected ({g.dim},)")
    if not np.all(np.isfinite(v)):
        raise InputError("input contains non-finite values")
    log_joint = _log_densities(g.weights, g.means, g.variances, v[None, :])[0]
    log_joint -= log_joint.max()
    p = np.exp(log_joint)
    return p / p.sum()


def _truncate_posterior(p: np.ndarray, target_sparsity: float) -> np.ndarray:
    """Keep the top ceil(target_sparsity * M) entries and renormalize."""
    m = p.shape[0]
    keep = max(1, math.ceil(target_sparsity * m))
    if keep >= m:
        return p
    order = np.argsort(-p, kind="stable")
    out = np.zeros_like(p)
    out[order[:keep]] = p[order[:keep]]
    total = out.sum()
    return out / total if total > 0 else out


def gmm_supervector(
    g: GaussianMixture,
    vectors: Sequence,
    clip_id: str = "",
    modality_tag: str = "gmm",
    target_sparsity: Optional[float] = 0.1,
) -> PooledFeature:
    """Max-pool per-input posterior vectors into one clip descriptor.

    Each input's posterior vector is optionally sparsified to its top
    ceil(target_sparsity * M) components (renormalized) before pooling;
    pass target_sparsity=None to pool the full posteriors.
    """
    vectors = list(vectors)
    if not vectors:
        raise InputError("gmm_supervector requires at least one input vector")
    pooled = None
    for v in vectors:
        p = posteriors(g, v)
        if target_sparsity is not None:
            p = _truncate_posterior(p, target_sparsity)
        pooled = p if pooled is None else np.maximum(pooled, p)
    return PooledFeature(values=pooled, clip_id=clip_id, modality_tag=modality_tag)
