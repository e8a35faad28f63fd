"""Joint audio-video sparse coding and cross-modal encoding.

Joint coding concatenates the two modalities with per-modality scaling,

    x_av = [ x_a / sqrt(N_a) ; x_v / sqrt(N_v) ],

and learns one dictionary over the fused vectors. The fused dictionary
decomposes back into per-modality blocks

    D_av = [ D_av_a / sqrt(N_a) ; D_av_v / sqrt(N_v) ],

so each block (times its sqrt(N) factor) supports single-modality coding
against the jointly learned atoms. For any shared code y the fused
objective splits exactly:

    ||x_av - D_av y||^2 + lam' ||y||_1
        = (1/N_a) (||x_a - D_av_a y||^2 + lam'' ||y||_1)
        + (1/N_v) (||x_v - D_av_v y||^2 + lam'' ||y||_1)

provided lam' = (1/N_a + 1/N_v) lam''. The split blocks are deliberately
left un-normalized; renormalizing would break this identity.
"""

import math
from dataclasses import dataclass
from typing import Tuple

import numpy as np

from .dictlearn import LearnConfig, TrainStats, learn_dictionary
from .errors import InputError, _as_finite, _check_count, _check_real, _check_type
from .solvers import Dictionary, SolverConfig, SparseCode, lasso_encode_batch

__all__ = [
    "ModalityPair",
    "JointDictionary",
    "fuse_rows",
    "learn_joint",
    "split_joint",
    "encode_cross_modal",
    "lambda_joint_of",
    "union_features",
]


@dataclass(frozen=True)
class ModalityPair:
    """Input dimensionalities of the audio and video modalities."""

    audio_dim: int
    video_dim: int

    def __post_init__(self):
        _check_count(self.audio_dim, "audio_dim")
        _check_count(self.video_dim, "video_dim")


@dataclass(frozen=True)
class JointDictionary:
    """A dictionary learned on fused inputs, and the modality split of its
    rows, which this type owns: `inner` is a plain Dictionary whose first
    modality_dims[0] rows are the audio block and the rest the video block."""

    inner: Dictionary
    modality_dims: Tuple[int, int]

    def __post_init__(self):
        _check_type(self.inner, Dictionary, "inner")
        try:
            dims = ModalityPair(*self.modality_dims)
        except TypeError:  # not iterable, or not two items
            raise InputError(f"modality_dims must be a pair, got {self.modality_dims!r}") from None
        na, nv = int(dims.audio_dim), int(dims.video_dim)
        if na + nv != self.inner.input_dim:
            raise InputError(f"modality_dims {self.modality_dims} do not sum to "
                             f"input dim {self.inner.input_dim}")
        object.__setattr__(self, "modality_dims", (na, nv))


def fuse_rows(audio: np.ndarray, video: np.ndarray) -> np.ndarray:
    """Concatenate each audio row with its video row, scaling each block by
    1/sqrt(N) of its dimension."""
    A = _as_finite(audio, 2, name="audio")
    V = _as_finite(video, 2, name="video")
    if A.shape[0] != V.shape[0]:
        raise InputError(
            f"audio and video matrices must share row counts, got {A.shape} and {V.shape}"
        )
    return np.hstack([A / math.sqrt(A.shape[1]), V / math.sqrt(V.shape[1])])


def learn_joint(pairs, cfg: LearnConfig) -> Tuple[JointDictionary, TrainStats]:
    """Learn a joint dictionary from (x_a, x_v) pairs by fusing them and
    delegating to the standard alternating learner. cfg.lam is the
    fused-space l1 weight."""
    pairs = list(pairs)
    if not pairs:
        raise InputError("learn_joint requires at least one (x_a, x_v) pair")
    try:
        audio, video = [xa for xa, _ in pairs], [xv for _, xv in pairs]
    except (TypeError, ValueError):  # an item that is not two items
        raise InputError("learn_joint takes (x_a, x_v) pairs") from None
    fused = fuse_rows(audio, video)
    dims = ModalityPair(np.size(audio[0]), np.size(video[0]))
    d, stats = learn_dictionary(fused, cfg)
    return JointDictionary(d, (dims.audio_dim, dims.video_dim)), stats


def split_joint(jd: JointDictionary) -> Tuple[Dictionary, Dictionary]:
    """Decompose a joint dictionary into its audio and video blocks.

    The blocks are scaled by sqrt(N_a), sqrt(N_v) so that re-fusing them
    reproduces the joint matrix; their columns are not unit norm and the
    returned dictionaries are flagged accordingly.
    """
    _check_type(jd, JointDictionary, "jd")
    na, nv = jd.modality_dims
    atoms = jd.inner.atoms
    audio = Dictionary(atoms[:na, :] * math.sqrt(na), normalized=False)
    video = Dictionary(atoms[na:, :] * math.sqrt(nv), normalized=False)
    return audio, video


def encode_cross_modal(
    x,
    d_split: Dictionary,
    lambda2: float,
    tol: float = 1e-8,
    max_iter: int = 1000,
) -> SparseCode:
    """Code a single-modality vector against its block of a joint
    dictionary with the per-modality l1 weight lambda2 (finite, >= 0), as
    a one-row lasso_encode_batch call; converged=False marks a code that
    missed tol (see lasso_encode_batch)."""
    cfg = SolverConfig(lam=lambda2, tol=tol, max_iter=max_iter)
    _check_type(d_split, Dictionary, "d_split")
    x = _as_finite(x, 1, d_split.input_dim)
    codes, converged = lasso_encode_batch(x[None, :], d_split, cfg)
    return SparseCode(codes[0], converged=bool(converged[0]))


def lambda_joint_of(lambda2: float, dims: ModalityPair) -> float:
    """Fused-space l1 weight matching a per-modality weight lambda2:
    lam' = (1/N_a + 1/N_v) * lam''."""
    _check_real(lambda2, "lambda2", ge=0)
    _check_type(dims, ModalityPair, "dims")
    return (1.0 / dims.audio_dim + 1.0 / dims.video_dim) * lambda2


def union_features(y_a, y_v) -> np.ndarray:
    """Concatenate two per-modality feature vectors, audio first."""
    a = _as_finite(y_a, 1, name="y_a")
    v = _as_finite(y_v, 1, name="y_v")
    return np.concatenate([a, v])
