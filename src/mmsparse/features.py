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
from typing import List, Optional, Sequence

import numpy as np

from .errors import InputError

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
        mean = np.asarray(self.mean, dtype=np.float64)
        basis = np.asarray(self.basis, dtype=np.float64)
        scales = np.asarray(self.scales, dtype=np.float64)
        if basis.ndim != 2 or basis.shape != (mean.size, self.out_dim):
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
        for arr in (mean, basis, scales):
            arr.setflags(write=False)
        object.__setattr__(self, "mean", mean)
        object.__setattr__(self, "basis", basis)
        object.__setattr__(self, "scales", scales)

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
        values = np.asarray(self.values, dtype=np.float64)
        if values.ndim != 1:
            raise InputError(f"pooled values must be 1-D, got shape {values.shape}")
        if not np.all(np.isfinite(values)):
            raise InputError("pooled values contain non-finite entries")
        if self.modality_tag not in MODALITY_TAGS:
            raise InputError(
                f"unknown modality tag {self.modality_tag!r}; expected one of {MODALITY_TAGS}"
            )
        values.setflags(write=False)
        object.__setattr__(self, "values", values)


def fit_whitening(x, d: int, eps: float = 1e-5) -> WhiteningTransform:
    """Fit a whitening transform on the rows of x, keeping d directions."""
    X = np.asarray(x, dtype=np.float64)
    if X.ndim != 2:
        raise InputError(f"training data must be 2-D, got shape {X.shape}")
    m, n = X.shape
    if m < 2:
        raise InputError(f"whitening needs at least 2 rows, got {m}")
    if not np.all(np.isfinite(X)):
        raise InputError("training data contains non-finite values")
    if not 1 <= d <= min(m - 1, n):
        raise InputError(
            f"out_dim {d} must lie in [1, min(rows-1, cols)] = "
            f"[1, {min(m - 1, n)}]"
        )
    if eps < 0:
        raise InputError(f"eps must be >= 0, got {eps}")

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
    X = np.asarray(x, dtype=np.float64)
    if X.ndim == 1:
        if X.shape[0] != w.input_dim:
            raise InputError(f"vector has dim {X.shape[0]}, expected {w.input_dim}")
        return w.scales * (w.basis.T @ (X - w.mean))
    if X.ndim == 2:
        if X.shape[1] != w.input_dim:
            raise InputError(f"rows have dim {X.shape[1]}, expected {w.input_dim}")
        return ((X - w.mean) @ w.basis) * w.scales
    raise InputError(f"expected a vector or matrix, got shape {X.shape}")


def max_pool(codes: Sequence) -> np.ndarray:
    """Elementwise maximum over a non-empty list of equal-length vectors."""
    if len(codes) == 0:
        raise InputError("max_pool requires at least one code")
    stacked = np.asarray([np.asarray(c, dtype=np.float64) for c in codes])
    if stacked.ndim != 2:
        raise InputError("codes must all be 1-D vectors of equal length")
    if not np.all(np.isfinite(stacked)):
        raise InputError("codes contain non-finite values")
    return stacked.max(axis=0)


def pool_clip(
    keyframe_groups: Sequence[Sequence],
    clip_id: str,
    modality_tag: str,
) -> PooledFeature:
    """Two-stage pooling: within each keyframe's codes, then across
    keyframes. Max is associative, so this equals one flat pool over every
    code in the clip.
    """
    groups = [list(g) for g in keyframe_groups]
    if not groups:
        raise InputError("pool_clip requires at least one keyframe group")
    staged = max_pool([max_pool(g) for g in groups])
    return PooledFeature(values=staged, clip_id=clip_id, modality_tag=modality_tag)
