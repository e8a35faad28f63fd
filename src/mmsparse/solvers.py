"""Per-example l1 sparse coding (LASSO) over a dictionary D with atoms as
columns:

    min_y ||x - D y||_2^2 + lam * ||y||_1

The quadratic term carries no 1/2 factor, so the coordinate-wise soft
threshold sits at lam / 2 and the KKT conditions read

    active k:    |2 d_k^T (x - D y) - lam * sign(y_k)| <= tol
    inactive k:  |2 d_k^T (x - D y)| <= lam + tol

Every l1 coder goes through one engine, lasso_encode_batch: lasso_encode
is its one-row case, and dictionary learning and cross-modal coding call
it too. Columns need not be unit norm (split dictionaries produced from a
joint dictionary are not). Each row follows the LASSO homotopy (Osborne,
Presnell & Turlach, IMA J. Numer. Anal. 2000; LARS with drops in Efron et
al., Ann. Statist. 2004), whatever the batch size. From mu = max|D^T x| it
follows y_A = G_AA^-1 (D_A^T x - mu s_A) down to mu = lam/2, where A is
the active set and s_A its signs; an atom joins A when its correlation
reaches mu and leaves when its coefficient reaches 0. G = D^T D is formed
once per call; the inverse of G_AA is updated as atoms join and leave, and
the end point is solved afresh. The path ends exactly, so the KKT test at
tol is a postcondition, not a stopping rule.

A row whose path fails (see lasso_encode_batch) falls back to cyclic
coordinate descent. The fallback rows run together in NumPy, in fixed
ascending coordinate order; each update is an exact minimization, so the
objective never rises. A row stops when its largest step in a sweep and
then its KKT violation fall below tol.
"""

from dataclasses import dataclass
from typing import Optional, Tuple

import numpy as np

from .errors import InputError, _as_finite, _check_count, _check_real, _freeze

__all__ = [
    "Dictionary",
    "SparseCode",
    "SolverConfig",
    "lasso_encode",
    "lasso_encode_batch",
    "kkt_violation",
]


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
        atoms = _as_finite(self.atoms, 2, name="atoms", nonempty=2)
        if self.normalized:
            norms = np.linalg.norm(atoms, axis=0)
            worst = float(np.max(np.abs(norms - 1.0)))
            if worst > 1e-9:
                raise InputError(
                    f"normalized dictionary has a column norm off by {worst:.3e}"
                )
        if self.modality_dims is not None:
            na, nv = self.modality_dims
            _check_count(na, "modality_dims[0]")
            _check_count(nv, "modality_dims[1]")
            if na + nv != atoms.shape[0]:
                raise InputError(
                    f"modality_dims {self.modality_dims} do not sum to input dim "
                    f"{atoms.shape[0]}"
                )
            object.__setattr__(self, "modality_dims", (int(na), int(nv)))
        _freeze(self, "atoms", atoms)

    @property
    def input_dim(self) -> int:
        return self.atoms.shape[0]

    @property
    def atom_count(self) -> int:
        return self.atoms.shape[1]


@dataclass(frozen=True)
class SparseCode:
    """Coefficient vector of one coded example.

    `converged` is False when the LASSO solver spent its iteration budget
    without meeting its tolerance.
    """

    coeffs: np.ndarray
    converged: bool = True

    def __post_init__(self):
        _freeze(self, "coeffs", _as_finite(self.coeffs, 1, name="coeffs"))

    @property
    def support(self) -> Tuple[int, ...]:
        """Sorted indices of the nonzero coefficients."""
        return tuple(int(i) for i in np.flatnonzero(self.coeffs))


@dataclass(frozen=True)
class SolverConfig:
    """LASSO solver settings: the l1 weight lam >= 0, the KKT tolerance
    tol (finite, > 0) that a converged code meets, and max_iter >= 1, the
    budget of homotopy path steps per row and, for a row whose path fails,
    of fallback coordinate descent sweeps."""

    lam: float
    tol: float = 1e-8
    max_iter: int = 1000

    def __post_init__(self):
        _check_real(self.lam, "lam", ge=0)
        _check_real(self.tol, "tol", gt=0)
        _check_count(self.max_iter, "max_iter")


def _example_and_code(x, d: Dictionary, y) -> Tuple[np.ndarray, np.ndarray]:
    """Validate one example and one code (array or SparseCode) against d."""
    coeffs = y.coeffs if isinstance(y, SparseCode) else _as_finite(y, 1, name="y")
    if coeffs.shape[0] != d.atom_count:
        raise InputError(
            f"code length {coeffs.shape[0]} does not match atom count {d.atom_count}"
        )
    return _as_finite(x, 1, d.input_dim), coeffs


def _kkt(corr: np.ndarray, y: np.ndarray, lam: float) -> np.ndarray:
    """Max KKT violation of each column of y (codes, atoms along axis 0),
    given corr = 2 D^T (x - D y) of the same shape; 1-D inputs give a scalar."""
    viol = np.where(y != 0.0, np.abs(corr - lam * np.sign(y)), np.abs(corr) - lam)
    return np.maximum(viol.max(axis=0), 0.0)


def kkt_violation(x, d: Dictionary, y, lam: float) -> float:
    """Maximum violation of the LASSO optimality conditions; 0 iff optimal."""
    _check_real(lam, "lam", ge=0)
    x, coeffs = _example_and_code(x, d, y)
    corr = 2.0 * (d.atoms.T @ (x - d.atoms @ coeffs))
    return float(_kkt(corr, coeffs, lam))


# An atom whose squared distance from the span of the other active atoms
# (its Cholesky pivot in G_AA, squared) falls below this share of its
# squared norm counts as in that span: G_AA is then singular.
_PIVOT_RTOL = 1e-10


def _row_kkt(X: np.ndarray, atoms: np.ndarray, Y: np.ndarray, lam: float) -> np.ndarray:
    """KKT violation of each row of the codes Y (m, k) for the rows of X."""
    return _kkt(2.0 * (atoms.T @ (X.T - atoms @ Y.T)), Y.T, lam)


def _path(c0: np.ndarray, G: np.ndarray, half_lam: float, max_iter: int):
    """The LASSO homotopy of one row, given c0 = D^T x and G = D^T D.

    As mu falls from max|c0| to lam/2, the active atoms A with signs s_A
    keep y_A(mu) = G_AA^-1 (c0_A - mu s_A) = u - mu w, and every correlation
    c(mu) = c0 - G[:, A] y_A(mu) = p + mu q stays within +-mu. A step ends
    at the largest mu below the current one where an inactive c_j reaches
    +-mu (j joins A) or an active y_j reaches 0 (j leaves A). M = G_AA^-1
    is updated as atoms join and leave; that was 13-27% faster per row than
    a fresh factorization at each step. Returns (A, y_A) at mu = lam/2, or
    None when the path needs more than max_iter steps or G_AA turns
    singular.
    """
    j = int(np.argmax(np.abs(c0)))
    if abs(c0[j]) <= half_lam:
        return [], np.zeros(0)
    active, signs = [j], [1.0 if c0[j] > 0 else -1.0]
    M = np.array([[1.0 / G[j, j]]])
    inactive = np.ones(c0.shape[0], dtype=bool)
    inactive[j] = False
    left, left_sign = -1, 0.0  # the atom that left in the previous step
    for _ in range(max_iter):
        GA = G[:, active]
        u, w = (M @ np.column_stack([c0[active], signs])).T
        p = c0 - GA @ u
        q = GA @ w
        # joins: p_j + mu q_j reaches +mu (while 1 - q_j > 0) or -mu (while
        # 1 + q_j > 0) at these mu. An atom that just left sits at
        # s_j mu, a root of its own sign's branch: only the other can count.
        up_ok, down_ok = inactive & (q < 1.0), inactive & (q > -1.0)
        if left >= 0:
            (up_ok if left_sign > 0 else down_ok)[left] = False
        up = np.where(up_ok, p, -np.inf) / np.where(up_ok, 1.0 - q, 1.0)
        down = np.where(down_ok, -p, -np.inf) / np.where(down_ok, 1.0 + q, 1.0)
        jn = int(np.argmax(np.maximum(up, down)))
        mu_join = max(up[jn], down[jn])
        # drops: y_j shrinks to 0 where s_j w_j < 0. An atom that joined
        # moving against its sign has y_j = 0 already and leaves at once.
        shrinks = np.asarray(signs) * w < 0.0
        drops = np.where(shrinks, u, -np.inf) / np.where(shrinks, w, 1.0)
        dr = int(np.argmax(drops))
        if max(mu_join, drops[dr]) <= half_lam:
            # solved afresh: the updates of M leave rounding behind
            end = c0[active] - half_lam * np.asarray(signs)
            return active, np.linalg.solve(GA[active], end)
        if drops[dr] >= mu_join:
            left, left_sign = active.pop(dr), signs.pop(dr)
            inactive[left] = True
            keep = np.arange(M.shape[0]) != dr
            M = M[keep][:, keep] - np.outer(M[keep, dr], M[dr, keep]) / M[dr, dr]
        else:
            # bordered inverse; its pivot is the Cholesky pivot of jn
            b = M @ GA[jn]
            pivot = G[jn, jn] - GA[jn] @ b
            if not pivot >= _PIVOT_RTOL * G[jn, jn]:
                return None
            n = M.shape[0]
            grown = np.empty((n + 1, n + 1))
            grown[:n, :n] = M + np.outer(b, b) / pivot
            grown[:n, n] = grown[n, :n] = -b / pivot
            grown[n, n] = 1.0 / pivot
            M = grown
            left = -1
            active.append(jn)
            signs.append(1.0 if up[jn] >= down[jn] else -1.0)
            inactive[jn] = False
    return None


def _homotopy(X: np.ndarray, atoms: np.ndarray, G: np.ndarray, lam: float,
              tol: float, max_iter: int) -> Tuple[np.ndarray, np.ndarray]:
    """Exact LASSO codes of the rows of X, one homotopy path per row.

    A row is flagged False, with a meaningless code, when its path fails
    (see _path) or when its end point does not pass the KKT test at tol,
    which rounding could break."""
    m, k = X.shape[0], atoms.shape[1]
    C0 = X @ atoms
    codes = np.zeros((m, k))
    ok = np.zeros(m, dtype=bool)
    for i in range(m):
        end = _path(C0[i], G, 0.5 * lam, max_iter)
        if end is not None:
            codes[i, end[0]] = end[1]
            ok[i] = True
    ok[ok] = _row_kkt(X[ok], atoms, codes[ok], lam) < tol
    return codes, ok


def _converged(step, atoms: np.ndarray, R: np.ndarray, Y: np.ndarray,
               lam: float, tol: float) -> np.ndarray:
    """The engine's one stopping test, per column of the residuals R (n, m)
    and codes Y (k, m): the sweep's largest coordinate step `step` (m,) is
    below tol, and then so is the KKT violation."""
    ok = step < tol
    if ok.any():
        ok[ok] = _kkt(2.0 * (atoms.T @ R[:, ok]), Y[:, ok], lam) < tol
    return ok


def _cd_vector(X: np.ndarray, atoms: np.ndarray, G: np.ndarray, lam: float,
               tol: float, max_iter: int) -> Tuple[np.ndarray, np.ndarray]:
    """Cyclic coordinate descent on every unsettled row of X at once: the
    fallback for rows whose homotopy path fails.

    The unsettled rows' codes Y and residuals R are kept packed side by
    side, one column per row; a row that passes the stopping test is
    scattered out to `codes` and dropped from both."""
    m, k = X.shape[0], atoms.shape[1]
    sq_norms = np.diag(G)
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

    Each row follows the exact LASSO homotopy for at most cfg.max_iter
    steps. A row whose path fails (step budget spent, singular active set)
    or whose end point misses the KKT test at cfg.tol falls back to
    coordinate descent: it stops once its largest coordinate step and then
    its KKT violation fall below cfg.tol, or after cfg.max_iter sweeps.
    Returns (codes, converged) with codes of shape (len(xs), atom_count); a
    row flagged False holds its last descent iterate. xs is not modified.
    """
    X = _as_finite(xs, 2, d.input_dim, "examples")
    G = d.atoms.T @ d.atoms
    args = (d.atoms, G, cfg.lam, cfg.tol, cfg.max_iter)
    codes, converged = _homotopy(X, *args)
    rest = np.flatnonzero(~converged)
    if rest.size:
        codes[rest], converged[rest] = _cd_vector(X[rest], *args)
    return codes, converged


def lasso_encode(x, d: Dictionary, cfg: SolverConfig) -> SparseCode:
    """Solve the l1 coding problem for one example: the one-row case of
    lasso_encode_batch. An example whose homotopy path fails (in
    cfg.max_iter steps) and whose fallback coordinate descent does not
    converge (in cfg.max_iter sweeps) returns its last descent iterate with
    converged=False."""
    x = _as_finite(x, 1, d.input_dim)
    codes, converged = lasso_encode_batch(x[None, :], d, cfg)
    return SparseCode(codes[0], converged=bool(converged[0]))

