"""PCA whitening of low-level features and max pooling of codes.

Whitening centers the data, projects onto the top-d eigenvectors of the
sample covariance (M-1 normalization), and rescales each direction by
1/sqrt(eigenvalue + eps'), where eps' is the configured epsilon times the
average eigenvalue (falling back to the raw epsilon for zero-variance
data). Eigenvector signs are fixed so the largest-magnitude entry of each
basis column is positive, which makes the fit fully deterministic.

Pooling is the plain signed elementwise maximum. It is associative, so
pooling codes per keyframe and then across keyframes equals pooling the
whole clip in one pass.
"""

from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .errors import InputError, _as_finite, _check_count, _check_real, _freeze

__all__ = [
    "WhiteningTransform",
    "PooledFeature",
    "MODALITY_TAGS",
    "fit_whitening",
    "apply_whitening",
    "max_pool",
    "pool_clip",
]

MODALITY_TAGS = ("audio", "video", "joint", "union", "cross-audio", "cross-video", "gmm")


@dataclass(frozen=True)
class WhiteningTransform:
    """Mean, projection basis (columns), and per-direction scale factors."""

    mean: np.ndarray
    basis: np.ndarray
    scales: np.ndarray
    out_dim: int
    epsilon: float

    def __post_init__(self):
        _check_count(self.out_dim, "out_dim")
        _check_real(self.epsilon, "epsilon", ge=0)
        mean = _as_finite(self.mean, 1, name="whitening mean")
        basis = _as_finite(self.basis, 2, name="whitening basis")
        scales = _as_finite(self.scales, 1, name="whitening scales")
        if basis.shape != (mean.size, self.out_dim):
            raise InputError(
                f"basis shape {basis.shape} inconsistent with mean size "
                f"{mean.size} and out_dim {self.out_dim}"
            )
        if scales.shape != (self.out_dim,):
            raise InputError(f"scales shape {scales.shape} != ({self.out_dim},)")
        if not np.all(scales > 0):
            raise InputError("whitening scales must be positive")
        gram = basis.T @ basis
        if np.max(np.abs(gram - np.eye(self.out_dim))) > 1e-8:
            raise InputError("whitening basis columns must be orthonormal")
        _freeze(self, "mean", mean)
        _freeze(self, "basis", basis)
        _freeze(self, "scales", scales)

    @property
    def input_dim(self) -> int:
        return self.mean.size


@dataclass(frozen=True)
class PooledFeature:
    """Clip-level descriptor: pooled code values plus identity metadata."""

    values: np.ndarray
    clip_id: str
    modality_tag: str

    def __post_init__(self):
        values = _as_finite(self.values, 1, name="pooled values")
        if self.modality_tag not in MODALITY_TAGS:
            raise InputError(
                f"unknown modality tag {self.modality_tag!r}; expected one of {MODALITY_TAGS}"
            )
        _freeze(self, "values", values)


def fit_whitening(x, d: int, eps: float = 1e-5) -> WhiteningTransform:
    """Fit a whitening transform on the rows of x, keeping d directions."""
    _check_count(d, "out_dim")
    _check_real(eps, "eps", ge=0)
    X = _as_finite(x, 2, name="training data")
    m, n = X.shape
    if m < 2:
        raise InputError(f"whitening needs at least 2 rows, got {m}")
    if d > min(m - 1, n):
        raise InputError(
            f"out_dim {d} must lie in [1, min(rows-1, cols)] = "
            f"[1, {min(m - 1, n)}]"
        )

    mean = X.mean(axis=0)
    centered = X - mean
    cov = centered.T @ centered / (m - 1)
    evals, evecs = np.linalg.eigh(cov)
    evals = np.clip(evals[::-1], 0.0, None)
    evecs = evecs[:, ::-1]

    basis = evecs[:, :d].copy()
    for j in range(d):
        col = basis[:, j]
        if col[np.argmax(np.abs(col))] < 0:
            basis[:, j] = -col

    eps_eff = eps * float(np.mean(evals)) if np.mean(evals) > 0 else eps
    denom = evals[:d] + eps_eff
    if np.any(denom <= 0):
        raise InputError(
            "zero-variance directions need eps > 0 to keep scales finite"
        )
    scales = 1.0 / np.sqrt(denom)
    return WhiteningTransform(mean=mean, basis=basis, scales=scales, out_dim=d, epsilon=eps)


def apply_whitening(w: WhiteningTransform, x) -> np.ndarray:
    """Whiten a vector or the rows of a matrix: scales * basis^T (x - mean)."""
    X = _as_finite(x, 2 if np.ndim(x) == 2 else 1, w.input_dim)
    return ((X - w.mean) @ w.basis) * w.scales


def max_pool(codes: Sequence) -> np.ndarray:
    """Elementwise maximum over a non-empty list of equal-length vectors."""
    return _as_finite(codes, 2, name="codes", nonempty=1).max(axis=0)


def pool_clip(
    keyframe_groups: Sequence[Sequence],
    clip_id: str,
    modality_tag: str,
) -> PooledFeature:
    """Two-stage pooling: within each keyframe's codes, then across
    keyframes. Max is associative, so this equals one flat pool over every
    code in the clip.
    """
    staged = max_pool([max_pool(list(g)) for g in keyframe_groups])
    return PooledFeature(values=staged, clip_id=clip_id, modality_tag=modality_tag)
