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
examples afterwards. A recycled atom has no code mass in the epoch's
codes, so recycling leaves the objective of those codes unchanged.
"""

from dataclasses import dataclass, field
from typing import List, Optional, Sequence, Tuple, Union

import numpy as np

from .errors import InputError, MmsparseError, _as_finite, _check_count, _check_real
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
    objective_tol: float = 1e-6
    solver_tol: float = 1e-8
    solver_max_iter: int = 1000

    def __post_init__(self):
        _check_count(self.atom_count, "atom_count")
        _check_count(self.epochs, "epochs")
        _check_count(self.solver_max_iter, "solver_max_iter")
        _check_count(self.seed, "seed", ge=None)
        _check_real(self.lam, "lam", ge=0)
        _check_real(self.objective_tol, "objective_tol", gt=0)
        _check_real(self.solver_tol, "solver_tol", gt=0)


@dataclass
class TrainStats:
    """Per-run diagnostics: objective after each full alternation, dead-atom
    replacement count, and whether the relative-change test fired."""

    objective_per_epoch: List[float] = field(default_factory=list)
    atoms_replaced: int = 0
    converged: bool = False


def _as_codes(codes, m: int, k: int) -> np.ndarray:
    if not isinstance(codes, np.ndarray):
        codes = np.stack([c.coeffs if isinstance(c, SparseCode) else c for c in codes])
    Y = _as_finite(codes, 2, name="codes")
    if Y.shape != (m, k):
        raise InputError(f"codes have shape {Y.shape}, expected ({m}, {k})")
    return Y


def coding_objective(examples, d: Dictionary, codes, lam: float) -> float:
    """Batch objective sum_i ||x_i - D y_i||^2 + lam ||y_i||_1."""
    _check_real(lam, "lam", ge=0)
    X = _as_finite(examples, 2, name="examples", nonempty=2)
    Y = _as_codes(codes, X.shape[0], d.atom_count)
    R = X - Y @ d.atoms.T
    return float(np.sum(R * R) + lam * np.sum(np.abs(Y)))


def init_dictionary(examples, k: int, seed: int) -> Dictionary:
    """Seed a dictionary with k normalized training examples.

    Rows are drawn without replacement when enough nonzero rows exist,
    with replacement otherwise; all-zero rows are never selected.
    """
    X = _as_finite(examples, 2, name="examples", nonempty=2)
    _check_count(k, "atom count")
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
    before it (slack 1e-9 of max(1, error before), the rounding room).
    """
    X = _as_finite(examples, 2, d.input_dim, "examples", nonempty=2)
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
    if err_after > err_before + 1e-9 * max(1.0, err_before):
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
    codes,
) -> Tuple[Dictionary, int]:
    """Swap dead atoms for the worst-reconstructed training examples.

    Atoms with zero usage are replaced, worst-reconstructed example first;
    earlier dead atoms take worse examples, and distinct dead atoms take
    distinct examples while any remain. Reconstruction error per example
    comes from `codes`.
    """
    X = _as_finite(examples, 2, name="examples", nonempty=2)
    usage = _as_finite(usage, 1, d.atom_count, "usage")
    dead = np.flatnonzero(usage == 0)
    if dead.size == 0:
        return d, 0

    Y = _as_codes(codes, X.shape[0], d.atom_count)
    R = X - Y @ d.atoms.T
    errs = np.sum(R * R, axis=1)

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
    update with that epoch's codes. Dead-atom recycling cannot change it,
    because only atoms with zero usage in those codes are recycled.
    """
    X = _as_finite(examples, 2, name="examples", nonempty=2)
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
        d, replaced = replace_dead_atoms(d, usage, X, seed=cfg.seed + epoch + 1, codes=Y)
        stats.atoms_replaced += replaced

        if prev is not None:
            rel = abs(prev - obj) / max(abs(prev), 1e-12)
            if rel < cfg.objective_tol:
                stats.converged = True
                break
        prev = obj

    return d, stats
