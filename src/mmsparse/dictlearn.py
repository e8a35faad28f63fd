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
from typing import List, Optional, Tuple

import numpy as np

from .errors import InputError, MmsparseError, _as_finite, _check_count, _check_real
from .rng import make_rng
from .solvers import Dictionary, SolverConfig, lasso_encode_batch

__all__ = ["LearnConfig", "TrainStats", "learn_dictionary"]


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


def _init_atoms(X: np.ndarray, k: int, seed: int) -> np.ndarray:
    """k normalized training examples as the columns of an atom matrix.

    Rows are drawn without replacement when enough nonzero rows exist,
    with replacement otherwise; all-zero rows are never selected.
    """
    norms = np.linalg.norm(X, axis=1)
    eligible = np.flatnonzero(norms > 0.0)
    if eligible.size == 0:
        raise InputError("cannot initialize a dictionary from all-zero examples")
    rng = make_rng(seed, "init-dictionary")
    picks = rng.choice(eligible, size=k, replace=eligible.size < k)
    return (X[picks] / norms[picks, None]).T.copy()


def _update_columns(X: np.ndarray, Y: np.ndarray, atoms: np.ndarray
                    ) -> Tuple[np.ndarray, np.ndarray]:
    """One pass of per-column updates given fixed codes Y; returns the new
    atoms and the residual X - Y D^T after the pass.

    Unused atoms (zero code mass) are left unchanged. The total
    reconstruction error after the pass is checked to be no larger than
    before it (slack 1e-9 of max(1, error before), the rounding room).
    """
    A = Y.T @ Y
    B = X.T @ Y
    atoms = np.array(atoms)

    before = X - Y @ atoms.T
    err_before = float(np.sum(before * before))

    for j in range(atoms.shape[1]):
        ajj = A[j, j]
        if ajj <= 0.0:
            continue
        u = atoms[:, j] + (B[:, j] - atoms @ A[:, j]) / ajj
        norm = np.linalg.norm(u)
        if norm > 0.0:
            atoms[:, j] = u / norm

    R = X - Y @ atoms.T
    err_after = float(np.sum(R * R))
    if err_after > err_before + 1e-9 * max(1.0, err_before):
        raise MmsparseError(f"dictionary update increased reconstruction error: "
                            f"{err_before} -> {err_after}")
    return atoms, R


def _replace_dead(atoms: np.ndarray, X: np.ndarray, Y: np.ndarray, R: np.ndarray,
                  seed: int) -> Tuple[np.ndarray, int]:
    """Swap the atoms no code in Y uses for the worst-reconstructed rows
    of X (per-row error from R = X - Y D^T; X has a nonzero row); returns
    the atoms and the swap count. Earlier dead atoms take worse rows, and
    distinct dead atoms take distinct rows while any remain."""
    dead = np.flatnonzero(np.count_nonzero(Y, axis=0) == 0)
    if dead.size == 0:
        return atoms, 0

    errs = np.sum(R * R, axis=1)
    row_norms = np.linalg.norm(X, axis=1)
    order = [i for i in np.argsort(-errs, kind="stable") if row_norms[i] > 0.0]

    rng = make_rng(seed, "replace-dead-atoms")
    atoms = np.array(atoms)
    for rank, atom_idx in enumerate(dead):
        row = order[rank] if rank < len(order) else int(rng.choice(np.asarray(order)))
        atoms[:, atom_idx] = X[row] / row_norms[row]
    return atoms, int(dead.size)


def learn_dictionary(examples, cfg: LearnConfig) -> Tuple[Dictionary, TrainStats]:
    """Alternate batch sparse coding and dictionary updates until the
    relative objective change drops below cfg.objective_tol or the epoch
    budget runs out.

    The recorded objective is evaluated after each epoch's dictionary
    update with that epoch's codes. Dead-atom recycling cannot change it,
    because only atoms with zero usage in those codes are recycled.
    """
    X = _as_finite(examples, 2, name="examples", nonempty=2)
    atoms = _init_atoms(X, cfg.atom_count, cfg.seed)
    scfg = SolverConfig(lam=cfg.lam, tol=cfg.solver_tol, max_iter=cfg.solver_max_iter)
    stats = TrainStats()
    prev: Optional[float] = None

    for epoch in range(cfg.epochs):
        Y, _ = lasso_encode_batch(X, Dictionary(atoms), scfg)
        atoms, R = _update_columns(X, Y, atoms)
        obj = float(np.sum(R * R) + cfg.lam * np.sum(np.abs(Y)))
        stats.objective_per_epoch.append(obj)

        atoms, replaced = _replace_dead(atoms, X, Y, R, seed=cfg.seed + epoch + 1)
        stats.atoms_replaced += replaced

        if prev is not None:
            rel = abs(prev - obj) / max(abs(prev), 1e-12)
            if rel < cfg.objective_tol:
                stats.converged = True
                break
        prev = obj

    return Dictionary(atoms), stats
