"""Dictionary learning by alternating sparse coding and column updates.

Each epoch encodes every example against the current dictionary (l1
coding), then updates the dictionary one column at a time: column j moves
to the unit-sphere minimizer of the reconstruction error given all codes
and the other columns,

    u_j = d_j + (B_j - D A_j) / A_jj,      d_j <- u_j / ||u_j||

with A = Y^T Y and B = X^T Y accumulated over the batch. Each column step
is an exact constrained minimization, so the total reconstruction error
never increases within an update. Atoms that no example used are left
untouched by the update and recycled from the worst-reconstructed
examples afterwards.
"""

from dataclasses import dataclass, field
from typing import List, Optional, Sequence, Tuple, Union

import numpy as np

from .errors import InputError, MmsparseError
from .rng import make_rng
from .solvers import Dictionary, SolverConfig, SparseCode, lasso_encode_batch

__all__ = [
    "LearnConfig",
    "TrainStats",
    "init_dictionary",
    "learn_dictionary",
    "dictionary_update_step",
    "replace_dead_atoms",
    "coding_objective",
]


@dataclass(frozen=True)
class LearnConfig:
    """Settings for the alternating learner."""

    atom_count: int
    lam: float
    epochs: int = 50
    seed: int = 0
    dead_usage_threshold: int = 0
    objective_tol: float = 1e-6
    solver_tol: float = 1e-8
    solver_max_iter: int = 1000

    def __post_init__(self):
        if self.atom_count < 1:
            raise InputError(f"atom_count must be >= 1, got {self.atom_count}")
        if self.epochs < 1:
            raise InputError(f"epochs must be >= 1, got {self.epochs}")
        if self.lam < 0:
            raise InputError(f"lam must be >= 0, got {self.lam}")
        if self.dead_usage_threshold < 0:
            raise InputError("dead_usage_threshold must be >= 0")
        if not self.objective_tol > 0:
            raise InputError("objective_tol must be > 0")


@dataclass
class TrainStats:
    """Per-run diagnostics: objective after each full alternation, dead-atom
    replacement count, and whether the relative-change test fired."""

    objective_per_epoch: List[float] = field(default_factory=list)
    atoms_replaced: int = 0
    converged: bool = False


def _as_examples(examples) -> np.ndarray:
    X = np.asarray(examples, dtype=np.float64)
    if X.ndim != 2 or X.shape[0] < 1 or X.shape[1] < 1:
        raise InputError(f"examples must be a non-empty 2-D matrix, got shape {X.shape}")
    if not np.all(np.isfinite(X)):
        raise InputError("examples contain non-finite values")
    return X


def _as_codes(codes, m: int, k: int) -> np.ndarray:
    if isinstance(codes, np.ndarray):
        Y = np.asarray(codes, dtype=np.float64)
    else:
        Y = np.stack([c.coeffs if isinstance(c, SparseCode) else np.asarray(c, dtype=np.float64) for c in codes])
    if Y.shape != (m, k):
        raise InputError(f"codes have shape {Y.shape}, expected ({m}, {k})")
    return Y


def coding_objective(examples, d: Dictionary, codes, lam: float) -> float:
    """Batch objective sum_i ||x_i - D y_i||^2 + lam ||y_i||_1."""
    X = _as_examples(examples)
    Y = _as_codes(codes, X.shape[0], d.atom_count)
    R = X - Y @ d.atoms.T
    return float(np.sum(R * R) + lam * np.sum(np.abs(Y)))


def init_dictionary(examples, k: int, seed: int) -> Dictionary:
    """Seed a dictionary with k normalized training examples.

    Rows are drawn without replacement when enough nonzero rows exist,
    with replacement otherwise; all-zero rows are never selected.
    """
    X = _as_examples(examples)
    if k < 1:
        raise InputError(f"atom count must be >= 1, got {k}")
    norms = np.linalg.norm(X, axis=1)
    eligible = np.flatnonzero(norms > 0.0)
    if eligible.size == 0:
        raise InputError("cannot initialize a dictionary from all-zero examples")
    rng = make_rng(seed, "init-dictionary")
    replace = eligible.size < k
    picks = rng.choice(eligible, size=k, replace=replace)
    atoms = (X[picks] / norms[picks, None]).T
    return Dictionary(atoms)


def dictionary_update_step(examples, codes, d: Dictionary) -> Dictionary:
    """One pass of per-column updates given fixed codes.

    Unused atoms (zero code mass) are left unchanged. The total
    reconstruction error after the pass is checked to be no larger than
    before it (1e-9 slack).
    """
    X = _as_examples(examples)
    if X.shape[1] != d.input_dim:
        raise InputError(
            f"examples have dim {X.shape[1]}, dictionary expects {d.input_dim}"
        )
    Y = _as_codes(codes, X.shape[0], d.atom_count)

    A = Y.T @ Y
    B = X.T @ Y
    atoms = np.array(d.atoms)

    before = X - Y @ atoms.T
    err_before = float(np.sum(before * before))

    for j in range(d.atom_count):
        ajj = A[j, j]
        if ajj <= 0.0:
            continue
        u = atoms[:, j] + (B[:, j] - atoms @ A[:, j]) / ajj
        norm = np.linalg.norm(u)
        if norm > 0.0:
            atoms[:, j] = u / norm

    after = X - Y @ atoms.T
    err_after = float(np.sum(after * after))
    if err_after > err_before + 1e-9:
        raise MmsparseError(
            f"dictionary update increased reconstruction error: "
            f"{err_before} -> {err_after}"
        )
    return Dictionary(atoms, modality_dims=d.modality_dims)


def replace_dead_atoms(
    d: Dictionary,
    usage,
    examples,
    seed: int,
    codes=None,
    threshold: int = 0,
) -> Tuple[Dictionary, int]:
    """Swap under-used atoms for the worst-reconstructed training examples.

    Atoms with usage <= threshold are replaced, worst-reconstructed example
    first; earlier dead atoms take worse examples, and distinct dead atoms
    take distinct examples while any remain. Reconstruction error per
    example comes from `codes` when given, otherwise from the best
    single-atom least-squares fit.
    """
    X = _as_examples(examples)
    usage = np.asarray(usage)
    if usage.shape != (d.atom_count,):
        raise InputError(
            f"usage has shape {usage.shape}, expected ({d.atom_count},)"
        )
    dead = np.flatnonzero(usage <= threshold)
    if dead.size == 0:
        return d, 0

    if codes is not None:
        Y = _as_codes(codes, X.shape[0], d.atom_count)
        R = X - Y @ d.atoms.T
        errs = np.sum(R * R, axis=1)
    else:
        sq = np.sum(X * X, axis=1)
        col_norms = np.linalg.norm(d.atoms, axis=0)
        ok = col_norms > 0.0
        proj = X @ d.atoms[:, ok] / col_norms[ok]
        errs = sq - np.max(proj * proj, axis=1, initial=0.0)

    row_norms = np.linalg.norm(X, axis=1)
    order = [i for i in np.argsort(-errs, kind="stable") if row_norms[i] > 0.0]
    if not order:
        return d, 0

    rng = make_rng(seed, "replace-dead-atoms")
    atoms = np.array(d.atoms)
    for rank, atom_idx in enumerate(dead):
        if rank < len(order):
            row = order[rank]
        else:
            row = int(rng.choice(np.asarray(order)))
        atoms[:, atom_idx] = X[row] / row_norms[row]
    return Dictionary(atoms, modality_dims=d.modality_dims), int(dead.size)


def learn_dictionary(examples, cfg: LearnConfig) -> Tuple[Dictionary, TrainStats]:
    """Alternate batch sparse coding and dictionary updates until the
    relative objective change drops below cfg.objective_tol or the epoch
    budget runs out.

    The recorded objective is evaluated after each epoch's dictionary
    update with that epoch's codes; with the default dead-usage threshold
    of zero, dead-atom recycling cannot change it.
    """
    X = _as_examples(examples)
    d = init_dictionary(X, cfg.atom_count, cfg.seed)
    scfg = SolverConfig(lam=cfg.lam, tol=cfg.solver_tol, max_iter=cfg.solver_max_iter)
    stats = TrainStats()
    prev: Optional[float] = None

    for epoch in range(cfg.epochs):
        Y, _ = lasso_encode_batch(X, d, scfg)
        d = dictionary_update_step(X, Y, d)
        obj = coding_objective(X, d, Y, cfg.lam)
        stats.objective_per_epoch.append(obj)

        usage = np.count_nonzero(Y, axis=0)
        d, replaced = replace_dead_atoms(
            d,
            usage,
            X,
            seed=cfg.seed + epoch + 1,
            codes=Y,
            threshold=cfg.dead_usage_threshold,
        )
        stats.atoms_replaced += replaced

        if prev is not None:
            rel = abs(prev - obj) / max(abs(prev), 1e-12)
            if rel < cfg.objective_tol:
                stats.converged = True
                break
        prev = obj

    return d, stats
