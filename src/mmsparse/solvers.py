"""Per-example sparse coding solvers.

Two coding problems are supported, both over a dictionary D with atoms as
columns:

    l1 (LASSO):   min_y ||x - D y||_2^2 + lam * ||y||_1
    l0 (OMP):     min_y ||x - D y||_2^2   s.t.  ||y||_0 <= s

The quadratic term carries no 1/2 factor, so the coordinate-wise soft
threshold sits at lam / 2 and the KKT conditions read

    active k:    |2 d_k^T (x - D y) - lam * sign(y_k)| <= tol
    inactive k:  |2 d_k^T (x - D y)| <= lam + tol

Every l1 coder goes through one engine, lasso_encode_batch: lasso_encode
is its one-row case, and dictionary learning and cross-modal coding call
it too. The engine runs cyclic coordinate descent in fixed ascending
coordinate order; each coordinate update is an exact minimization, so the
objective is non-increasing per update. A row stops when its largest
coordinate step in a sweep and then its KKT violation fall below tol.
Columns need not be unit norm (split dictionaries produced from a joint
dictionary are not).

The engine has two sweeps of the same arithmetic and picks one by the row
count it is given. Below _VECTOR_SWEEP_MIN_ROWS rows it sweeps one row at
a time on Python floats; from there on it sweeps all unsettled rows at
once in NumPy, which costs about a dozen array operations per coordinate
whatever the row count. Timed on the trained dictionaries of the
benchmark's `detect` set-up (32 atoms; audio 12-D, video 8-D, joint 20-D),
256 rows in batches of m, one BLAS thread: at m = 1 the vector sweep was
5-12x slower than the scalar one, at m = 128 it was 2-3x faster, and the
two broke even between 24 and 48 rows (between 64 and 128 on a split
audio block, whose rows take more sweeps). Streamed clips code 3-6 rows
per call and cross-modal coding 1, so they take the scalar sweep; training
codes 100-250 rows per call and takes the vector one.
"""

from dataclasses import dataclass
from typing import Optional, Tuple

import numpy as np

from .errors import InputError

__all__ = [
    "Dictionary",
    "SparseCode",
    "SolverConfig",
    "lasso_encode",
    "lasso_encode_batch",
    "lasso_objective",
    "omp_encode",
    "kkt_violation",
    "reconstruction_error",
]


def _as_finite(x, ndim: int, dim: Optional[int] = None, name: str = "x") -> np.ndarray:
    """The solver entry points' input check: a finite float64 array of
    `ndim` dimensions whose last axis has length `dim` when one is given."""
    v = np.asarray(x, dtype=np.float64)
    if v.ndim != ndim:
        raise InputError(f"{name} must be {ndim}-D, got shape {v.shape}")
    if dim is not None and v.shape[-1] != dim:
        raise InputError(f"{name} has dim {v.shape[-1]}, expected {dim}")
    if not np.all(np.isfinite(v)):
        raise InputError(f"{name} contains non-finite values")
    return v


@dataclass(frozen=True)
class Dictionary:
    """Matrix of basis atoms, one atom per column.

    `modality_dims` marks a joint dictionary whose rows split into an audio
    block followed by a video block. `normalized=False` marks dictionaries
    whose columns are intentionally not unit norm (the split halves of a
    joint dictionary).
    """

    atoms: np.ndarray
    modality_dims: Optional[Tuple[int, int]] = None
    normalized: bool = True

    def __post_init__(self):
        atoms = np.ascontiguousarray(np.asarray(self.atoms, dtype=np.float64))
        if atoms.ndim != 2:
            raise InputError(f"atoms must be 2-D, got shape {atoms.shape}")
        n, k = atoms.shape
        if n < 1 or k < 1:
            raise InputError(f"dictionary must be at least 1x1, got {n}x{k}")
        if not np.all(np.isfinite(atoms)):
            raise InputError("dictionary contains non-finite values")
        if self.normalized:
            norms = np.linalg.norm(atoms, axis=0)
            worst = float(np.max(np.abs(norms - 1.0)))
            if worst > 1e-9:
                raise InputError(
                    f"normalized dictionary has a column norm off by {worst:.3e}"
                )
        if self.modality_dims is not None:
            na, nv = self.modality_dims
            if na < 1 or nv < 1 or na + nv != n:
                raise InputError(
                    f"modality_dims {self.modality_dims} do not sum to input dim {n}"
                )
            object.__setattr__(self, "modality_dims", (int(na), int(nv)))
        atoms.setflags(write=False)
        object.__setattr__(self, "atoms", atoms)

    @property
    def input_dim(self) -> int:
        return self.atoms.shape[0]

    @property
    def atom_count(self) -> int:
        return self.atoms.shape[1]


@dataclass(frozen=True)
class SparseCode:
    """Coefficient vector plus its explicit support.

    `support` is exactly the sorted list of nonzero coefficient indices.
    `converged` is False when the producing solver stopped abnormally
    (LASSO iteration budget exhausted, OMP rank-deficient selection).
    """

    coeffs: np.ndarray
    support: Tuple[int, ...]
    converged: bool = True

    def __post_init__(self):
        coeffs = np.ascontiguousarray(np.asarray(self.coeffs, dtype=np.float64))
        if coeffs.ndim != 1:
            raise InputError(f"coeffs must be 1-D, got shape {coeffs.shape}")
        if not np.all(np.isfinite(coeffs)):
            raise InputError("coeffs contain non-finite values")
        actual = tuple(int(i) for i in np.flatnonzero(coeffs))
        if tuple(self.support) != actual:
            raise InputError("support does not match nonzero coefficients")
        coeffs.setflags(write=False)
        object.__setattr__(self, "coeffs", coeffs)
        object.__setattr__(self, "support", actual)

    @classmethod
    def from_coeffs(cls, coeffs, converged: bool = True) -> "SparseCode":
        coeffs = np.asarray(coeffs, dtype=np.float64)
        support = tuple(int(i) for i in np.flatnonzero(coeffs))
        return cls(coeffs=coeffs, support=support, converged=converged)

    @property
    def nnz(self) -> int:
        return len(self.support)


@dataclass(frozen=True)
class SolverConfig:
    """LASSO solver settings: l1 weight, KKT tolerance, sweep budget."""

    lam: float
    tol: float = 1e-8
    max_iter: int = 1000

    def __post_init__(self):
        if not np.isfinite(self.lam) or self.lam < 0:
            raise InputError(f"lam must be >= 0, got {self.lam}")
        if not self.tol > 0:
            raise InputError(f"tol must be > 0, got {self.tol}")
        if self.max_iter < 1:
            raise InputError(f"max_iter must be >= 1, got {self.max_iter}")


def _example_and_code(x, d: Dictionary, y) -> Tuple[np.ndarray, np.ndarray]:
    """Validate one example and one code (array or SparseCode) against d."""
    coeffs = y.coeffs if isinstance(y, SparseCode) else _as_finite(y, 1, name="y")
    if coeffs.shape[0] != d.atom_count:
        raise InputError(
            f"code length {coeffs.shape[0]} does not match atom count {d.atom_count}"
        )
    return _as_finite(x, 1, d.input_dim), coeffs


def lasso_objective(x, d: Dictionary, y, lam: float) -> float:
    """Value of ||x - D y||^2 + lam * ||y||_1."""
    x, coeffs = _example_and_code(x, d, y)
    r = x - d.atoms @ coeffs
    return float(r @ r + lam * np.sum(np.abs(coeffs)))


def _kkt(corr: np.ndarray, y: np.ndarray, lam: float) -> np.ndarray:
    """Max KKT violation of each column of y (codes, atoms along axis 0),
    given corr = 2 D^T (x - D y) of the same shape; 1-D inputs give a scalar."""
    viol = np.where(y != 0.0, np.abs(corr - lam * np.sign(y)), np.abs(corr) - lam)
    return np.maximum(viol.max(axis=0), 0.0)


def kkt_violation(x, d: Dictionary, y, lam: float) -> float:
    """Maximum violation of the LASSO optimality conditions; 0 iff optimal."""
    x, coeffs = _example_and_code(x, d, y)
    corr = 2.0 * (d.atoms.T @ (x - d.atoms @ coeffs))
    return float(_kkt(corr, coeffs, lam))


def reconstruction_error(x, d: Dictionary, y) -> float:
    """Squared Euclidean residual ||x - D y||^2."""
    x, coeffs = _example_and_code(x, d, y)
    r = x - d.atoms @ coeffs
    return float(r @ r)


# Row count at which lasso_encode_batch switches from sweeping one row at a
# time to sweeping all unsettled rows at once (see the module docstring).
_VECTOR_SWEEP_MIN_ROWS = 32


def _converged(step, atoms: np.ndarray, R: np.ndarray, Y: np.ndarray,
               lam: float, tol: float) -> np.ndarray:
    """The engine's one stopping test, per column of the residuals R (n, m)
    and codes Y (k, m): the sweep's largest coordinate step `step` (m,) is
    below tol, and then so is the KKT violation."""
    ok = step < tol
    if ok.any():
        ok[ok] = _kkt(2.0 * (atoms.T @ R[:, ok]), Y[:, ok], lam) < tol
    return ok


def _cd_scalar(X: np.ndarray, atoms: np.ndarray, lam: float, tol: float,
               max_iter: int) -> Tuple[np.ndarray, np.ndarray]:
    """Cyclic coordinate descent, one row of X after another, on Python
    floats (a row's code y is a list) to keep per-coordinate overhead low."""
    m, k = X.shape[0], atoms.shape[1]
    cols = list(np.ascontiguousarray(atoms.T))
    sq_norms = np.einsum("nk,nk->k", atoms, atoms).tolist()
    half_lam = 0.5 * lam
    codes = np.zeros((m, k))
    converged = np.zeros(m, dtype=bool)
    for i in range(m):
        y = [0.0] * k
        r = X[i].copy()
        for _ in range(max_iter):
            max_delta = 0.0
            for j in range(k):
                g = sq_norms[j]
                if g <= 0.0:
                    continue
                col = cols[j]
                rho = float(col @ r) + g * y[j]
                mag = abs(rho) - half_lam
                new = (mag / g if rho > 0 else -mag / g) if mag > 0.0 else 0.0
                delta = new - y[j]
                if delta != 0.0:
                    r -= delta * col
                    y[j] = new
                    if abs(delta) > max_delta:
                        max_delta = abs(delta)
            if max_delta < tol and _converged(
                np.array([max_delta]), atoms, r[:, None], np.array(y)[:, None], lam, tol
            )[0]:
                converged[i] = True
                break
        codes[i] = y
    return codes, converged


def _cd_vector(X: np.ndarray, atoms: np.ndarray, lam: float, tol: float,
               max_iter: int) -> Tuple[np.ndarray, np.ndarray]:
    """Cyclic coordinate descent on every unsettled row of X at once.

    The unsettled rows' codes Y and residuals R are kept packed side by
    side, one column per row; a row that passes the stopping test is
    scattered out to `codes` and dropped from both."""
    m, k = X.shape[0], atoms.shape[1]
    sq_norms = np.einsum("nk,nk->k", atoms, atoms)
    half_lam = 0.5 * lam
    codes = np.zeros((m, k))
    converged = np.zeros(m, dtype=bool)
    rows = np.arange(m)
    Y = np.zeros((k, m))
    R = np.array(X.T, order="C")  # a copy even when X.T is already contiguous
    for _ in range(max_iter):
        max_delta = np.zeros(rows.size)
        for j in range(k):
            g = sq_norms[j]
            if g <= 0.0:
                continue
            col = atoms[:, j]
            rho = col @ R + g * Y[j]
            new = np.sign(rho) * np.maximum(np.abs(rho) - half_lam, 0.0) / g
            delta = new - Y[j]
            if np.any(delta):
                R -= np.outer(col, delta)
                Y[j] = new
                np.maximum(max_delta, np.abs(delta), out=max_delta)
        done = _converged(max_delta, atoms, R, Y, lam, tol)
        if done.any():
            codes[rows[done]] = Y[:, done].T
            converged[rows[done]] = True
            keep = ~done
            rows, Y, R = rows[keep], Y[:, keep], np.ascontiguousarray(R[:, keep])
            if rows.size == 0:
                break
    codes[rows] = Y.T
    return codes, converged


def lasso_encode_batch(
    xs: np.ndarray, d: Dictionary, cfg: SolverConfig
) -> Tuple[np.ndarray, np.ndarray]:
    """Encode the rows of xs against one dictionary: the package's one
    LASSO engine.

    Each row runs cyclic coordinate descent until its largest coordinate
    step and then its KKT violation fall below cfg.tol, or for cfg.max_iter
    sweeps. Below _VECTOR_SWEEP_MIN_ROWS rows, the rows are swept one at a
    time in scalar code; at or above it, all unsettled rows are swept
    together in NumPy and each leaves as soon as it passes the test. The
    switch sits where the two sweeps broke even when timed (see the module
    docstring); both give the same codes up to rounding. Returns
    (codes, converged) with codes of shape (len(xs), atom_count); xs is
    not modified.
    """
    X = _as_finite(xs, 2, d.input_dim, "examples")
    sweep = _cd_scalar if X.shape[0] < _VECTOR_SWEEP_MIN_ROWS else _cd_vector
    return sweep(X, d.atoms, cfg.lam, cfg.tol, cfg.max_iter)


def lasso_encode(x, d: Dictionary, cfg: SolverConfig) -> SparseCode:
    """Solve the l1 coding problem for one example: the one-row case of
    lasso_encode_batch. An example whose solve stops at cfg.max_iter sweeps
    returns its final iterate with converged=False."""
    x = _as_finite(x, 1, d.input_dim)
    codes, converged = lasso_encode_batch(x[None, :], d, cfg)
    return SparseCode.from_coeffs(codes[0], converged=bool(converged[0]))


def omp_encode(x, d: Dictionary, s: int) -> SparseCode:
    """Greedy l0-constrained coding with a full least-squares refit on the
    selected support at every iteration.

    Selection maximizes the normalized residual correlation |d_k^T r|/||d_k||.
    Stops when s atoms are selected, the residual norm drops below 1e-12, or
    a newly selected atom makes the support rank-deficient (that atom is
    dropped and the result is flagged converged=False).
    """
    x = _as_finite(x, 1, d.input_dim)
    s = int(s)
    if s < 0:
        raise InputError(f"sparsity bound must be >= 0, got {s}")
    if s > d.atom_count:
        raise InputError(f"sparsity bound {s} exceeds atom count {d.atom_count}")

    k = d.atom_count
    coeffs = np.zeros(k)
    if s == 0:
        return SparseCode.from_coeffs(coeffs)

    atoms = d.atoms
    norms = np.linalg.norm(atoms, axis=0)
    selectable = norms > 0.0
    inv_norms = np.where(selectable, 1.0 / np.where(selectable, norms, 1.0), 0.0)

    support: list = []
    r = x.copy()
    sol = np.zeros(0)
    flagged = False

    for _ in range(s):
        if np.linalg.norm(r) < 1e-12:
            break
        corr = (atoms.T @ r) * inv_norms
        if support:
            corr[support] = 0.0
        j = int(np.argmax(np.abs(corr)))
        if corr[j] == 0.0:
            break
        trial = support + [j]
        sub = atoms[:, trial]
        gram = sub.T @ sub
        if len(trial) > 1 and float(np.min(np.linalg.eigvalsh(gram))) < 1e-10:
            flagged = True
            break
        rhs = sub.T @ x
        sol = np.linalg.solve(gram + 1e-12 * np.eye(len(trial)), rhs)
        support = trial
        r = x - sub @ sol

    if support:
        coeffs[support] = sol
    return SparseCode.from_coeffs(coeffs, converged=not flagged)
