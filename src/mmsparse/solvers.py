"""Per-example l1 sparse coding (LASSO) over a dictionary D with atoms as
columns:

    min_y ||x - D y||_2^2 + lam * ||y||_1

The quadratic term carries no 1/2 factor, so the coordinate-wise soft
threshold sits at lam / 2 and the KKT conditions read

    active k:    |2 d_k^T (x - D y) - lam * sign(y_k)| <= tol
    inactive k:  |2 d_k^T (x - D y)| <= lam + tol

Every l1 coder goes through one engine, lasso_encode_batch, over a plain
matrix of atoms; a one-row call codes one example. Columns need not be
unit norm (split dictionaries produced from a joint dictionary are not).
Each row follows the LASSO homotopy (Osborne, Presnell & Turlach, IMA J.
Numer. Anal. 2000; LARS with drops in Efron et al., Ann. Statist. 2004),
whatever the batch size. From mu = max|D^T x| it follows
y_A = G_AA^-1 (D_A^T x - mu s_A) down to mu = lam/2, where A is the active
set and s_A its signs; an atom joins A when its correlation reaches mu and
leaves when its coefficient reaches 0. G = D^T D is formed once per call;
the inverse of G_AA is updated as atoms join and leave, and the end point
is solved afresh. The path ends exactly, so the KKT test at tol is a
postcondition, not a stopping rule.

A call of at least _LOCKSTEP_MIN_ROWS rows (dictionary learning's
training sets, say) takes the paths in lockstep: each step takes every
live row's largest candidate, laid out as in _path, from batched products
over padded active sets. A row that ends has its atoms and signs copied
out at that step, compacting the padded arrays only drops rows, and
after the last step every end point is solved once, as in _path; one
stack per active-set size rounds as one solve per row does. The steps'
products round unlike _path's, yet the codes and flags come out as
_path's, bit for bit, except where rounding decides a 0/0 join ratio,
as an exact copy of an atom gives; there either engine may end a row the
other fails. A row whose joining pivot is small fails, as in _path.
Smaller calls (one clip's rows, one example) run _path row by row.

A row whose path fails (see lasso_encode_batch) falls back to cyclic
coordinate descent. The fallback rows run together in NumPy, in fixed
ascending coordinate order; each update is an exact minimization, so the
objective never rises. A row stops when its largest step in a sweep and
then its KKT violation fall below tol.
"""

from dataclasses import dataclass
from typing import Tuple

import numpy as np

from .errors import InputError, _as_finite, _check_count, _check_real, _check_type, _freeze

__all__ = [
    "Dictionary",
    "SparseCode",
    "SolverConfig",
    "lasso_encode_batch",
    "kkt_violation",
]


@dataclass(frozen=True)
class Dictionary:
    """Matrix of basis atoms, one atom per column.

    `normalized=False` marks dictionaries whose columns are intentionally
    not unit norm (the split blocks of a joint dictionary). The atoms are a
    plain matrix: where a joint dictionary's rows split is kept by
    multimodal.JointDictionary.
    """

    atoms: np.ndarray
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
    """Validate one example and one code array against d."""
    _check_type(d, Dictionary, "d")
    coeffs = _as_finite(y, 1, name="y")
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
    at the largest mu below the current one where an active y_j reaches 0
    (j leaves A) or an inactive c_j reaches +-mu (j joins A); on a tie a
    leave goes first, then the lowest atom, then +mu. M = G_AA^-1 is
    updated as atoms join and leave. Returns (A, y_A) at mu = lam/2, or None
    when the path needs more than max_iter steps or G_AA turns singular.
    """
    k, j = c0.shape[0], int(np.abs(c0).argmax())
    if abs(c0[j]) <= half_lam:
        return [], np.zeros(0)
    active, M, pm = [j], np.array([[1.0 / G[j, j]]]), np.array([1.0, -1.0])
    cs = np.empty((k, 2))  # (c0_j, s_j) of the active atoms, in A's order
    cs[0] = c0[j], 1.0 if c0[j] > 0 else -1.0
    # a step's candidate mu: leaves in A's order, then joins at +-mu by atom
    cand = np.empty(3 * k)
    leaves, joins = cand[:k], cand[k:].reshape(k, 2)
    sel = np.repeat(pm[None], k, axis=0)  # a join branch's +-1, or 0 if barred
    sel[j] = 0.0
    blocked = None  # the branch an atom that just left may not rejoin by
    for _ in range(max_iter):
        n = len(active)
        GA = G[:, active]
        u, w = (M @ cs[:n]).T
        p = c0 - GA @ u
        q = GA @ w
        cand.fill(-np.inf)
        # leaves: y_j shrinks to 0 where s_j w_j < 0. An atom that joined
        # moving against its sign has y_j = 0 already and leaves at once.
        np.divide(u, w, out=leaves[:n], where=cs[:n, 1] * w < 0.0)
        # joins: p_j + mu q_j reaches +-mu at p_j / (+-1 - q_j), while
        # 1 -+ q_j > 0. An atom that just left sits at s_j mu, a root of
        # its own sign's branch: only the other can count.
        den = pm - q[:, None]
        np.divide(p[:, None], den, out=joins, where=den * sel > 0.0)
        f = int(cand.argmax())
        if cand[f] <= half_lam:
            # solved afresh: the updates of M leave rounding behind
            return active, np.linalg.solve(GA[active], cs[:n, 0] - half_lam * cs[:n, 1])
        if blocked:
            sel[blocked], blocked = pm[blocked[1]], None
        if f < k:
            blocked = active.pop(f), int(cs[f, 1] < 0)
            sel[blocked[0]] = pm * (pm != cs[f, 1])
            cs[f:n - 1] = cs[f + 1:n]
            keep = np.arange(n) != f
            M = M[keep][:, keep] - M[keep, f][:, None] * M[f, keep] / M[f, f]
            continue
        # bordered inverse; its pivot is the Cholesky pivot of jn
        jn, branch = divmod(f - k, 2)
        b = M @ GA[jn]
        pivot = G[jn, jn] - GA[jn] @ b
        if not pivot >= _PIVOT_RTOL * G[jn, jn]:
            return None
        grown = np.empty((n + 1, n + 1))
        grown[:n, :n] = M + b[:, None] * b / pivot
        grown[:n, n] = grown[n, :n] = -b / pivot
        grown[n, n] = 1.0 / pivot
        M = grown
        active.append(jn)
        cs[n] = c0[jn], pm[branch]
        sel[jn] = 0.0
    return None


# Calls with at least this many rows take the lockstep homotopy. Timed on
# the rows of the benchmark's dictionary-learning calls against trained
# 8- to 20-D, 32-atom dictionaries (one BLAS thread, median over 60 calls,
# on a shared 2-core host), per-row paths against the lockstep: 4 rows
# 0.39 against 0.99 ms, 8 rows 0.62 against 0.97, 12 rows 0.93 against
# 1.15, 16 rows 1.17 against 1.04, 144 rows 9.0 against 1.9.
_LOCKSTEP_MIN_ROWS = 16


def _pad_one(a: np.ndarray) -> np.ndarray:
    """a with one more zero slot at the end of every axis but the first."""
    grown = np.zeros((a.shape[0],) + tuple(n + 1 for n in a.shape[1:]), dtype=a.dtype)
    grown[(slice(None),) + tuple(slice(n) for n in a.shape[1:])] = a
    return grown


def _lockstep(C0: np.ndarray, G: np.ndarray, half_lam: float, max_iter: int,
              codes: np.ndarray, ok: np.ndarray) -> None:
    """_path for every row of C0 = X D at once, one event per live row per
    step, writing each finished row's code and flag into codes and ok. A
    row fails, its flag left False, where _path's would: its joining pivot
    is below _PIVOT_RTOL of G_jj, or it spends max_iter steps.

    Per row it keeps the active atoms in join order, padded to the largest
    active set, with their signs and a padded stack of the bordered inverses
    M of G_AA; zero padding adds exact zeros to every product. A status per
    row, in call order, says where it stands; a row that ends has its atoms
    and signs copied out at that step. Compaction only drops rows no longer
    live, once at most half of the arrays' rows are, so they change size a
    few times per call rather than at every step (each new size of a small
    array is one more buffer that NumPy caches, and they raised the
    benchmark's peak memory). After the last step each finished row's end
    point is solved once, afresh as in _path, on G_AA in join order; rows of
    one active-set size are solved as one stack, which rounds as one solve
    per row does.
    """
    m, k = C0.shape
    rows = idx = np.arange(m)
    C = C0
    diag = np.diag(G)
    pm = np.array([1.0, -1.0])[:, None]
    j0 = np.argmax(np.abs(C0), axis=1)
    c_j0 = C0[rows, j0]
    live = np.abs(c_j0) > half_lam
    # each row's status: -1 while live or once its path fails, else the size
    # of its final active set (0 when mu starts at or below lam/2)
    status = np.where(live, -1, 0)
    # a finished row's active atoms in join order, and their signs
    ends = np.zeros((m, k), dtype=np.int32)
    end_sgn = np.zeros((m, k), dtype=np.int8)
    act = j0[:, None]
    sgn = np.where(c_j0 > 0, 1.0, -1.0)[:, None]
    nact = np.ones(m, dtype=np.int64)
    M = (1.0 / np.where(live, diag[j0], 1.0))[:, None, None]
    # the join branches (+mu, -mu) open to each atom, and the one (flat over
    # (2, k), or -1) barred to a just-left atom for one event, as in _path
    sel = np.ones((m, 2, k), dtype=bool)
    sel[rows, :, j0] = False
    blocked = np.full(m, -1)

    for _ in range(max_iter):
        n_live = np.count_nonzero(live)
        if n_live == 0:
            break
        if 2 * n_live <= live.size:
            idx, C, act, sgn, nact, M, sel, blocked = (
                a[live] for a in (idx, C, act, sgn, nact, M, sel, blocked))
            S = max(int(nact.max()), 1)
            act, sgn, M = act[:, :S], sgn[:, :S], M[:, :S, :S]
            rows = np.arange(n_live)
            live = np.ones(n_live, dtype=bool)
        L, S = act.shape
        on = np.arange(S) < nact[:, None]
        cA = np.where(on, np.take_along_axis(C, act, 1), 0.0)
        UW = M @ np.stack([cA, sgn], axis=2)
        u, w = UW[..., 0], UW[..., 1]
        # u and w scattered over the k atoms (padding into a spare column):
        # p = c0 - G[:, A] u = c0 - U G, and q = W G
        U = np.zeros((2, L, k + 1))
        slot = np.where(on, act, k)
        U[0, rows[:, None], slot] = u
        U[1, rows[:, None], slot] = w
        PQ = U[:, :, :k].reshape(2 * L, k) @ G
        p = C - PQ[:L]
        q = PQ[L:]

        # a step's candidate mu, as in _path: the end lam/2, the leaves by
        # slot, then the joins at +mu and at -mu by atom
        cand = np.empty((L, 1 + S + 2 * k))
        cand[:, 0] = half_lam
        shrinks = sgn * w < 0.0
        cand[:, 1:S + 1] = np.where(shrinks, u, -np.inf) / np.where(shrinks, w, 1.0)
        # joins: +-(p_j + mu q_j) reaches mu at +-p_j / (1 -+ q_j), while
        # 1 -+ q_j > 0
        den = 1.0 - pm * q[:, None, :]
        opened = sel & (den > 0.0)
        cand[:, S + 1:] = (np.where(opened, pm * p[:, None, :], -np.inf)
                           / np.where(opened, den, 1.0)).reshape(L, 2 * k)
        del den  # freed before the updates of M below
        f = np.argmax(cand, axis=1)
        done, join = f == 0, f > S
        branch, jn = divmod(np.where(join, f - 1 - S, 0), k)

        # the joining atom's pivot, as _path's bordered update takes it; a
        # row whose G_AA turns singular fails, as in _path
        g = np.where(on, G[jn[:, None], act], 0.0)
        b = (M @ g[:, :, None])[..., 0]
        pivot = diag[jn] - np.sum(g * b, axis=1)
        failed = join & ~(pivot >= _PIVOT_RTOL * diag[jn])

        fin = np.flatnonzero(done & live)
        out = idx[fin]
        status[out], ends[out, :S], end_sgn[out, :S] = nact[fin], act[fin], sgn[fin]
        live &= ~(done | failed)
        # an event lifts the bar of the one before
        r = np.flatnonzero(live & (blocked >= 0))
        sel.reshape(L, 2 * k)[r, blocked[r]] = True
        blocked[live] = -1

        jr = np.flatnonzero(live & join)
        if jr.size:
            if np.max(nact[jr]) == S:  # grow the padding by one slot
                act, sgn, M, b = (_pad_one(a) for a in (act, sgn, M, b))
            n, atom, piv, bj = nact[jr], jn[jr], pivot[jr], b[jr]
            M[jr] += bj[:, :, None] * bj[:, None, :] / piv[:, None, None]
            M[jr, :, n] = M[jr, n, :] = -bj / piv[:, None]  # 0 past n
            M[jr, n, n] = 1.0 / piv
            act[jr, n], sgn[jr, n] = atom, pm[branch[jr], 0]
            sel[jr, :, atom] = False
            nact[jr] += 1

        dk = np.flatnonzero(live & ~join)
        if dk.size:
            S = act.shape[1]
            d = f[dk] - 1
            M[dk] -= M[dk, :, d][:, :, None] * M[dk, d, :][:, None, :] / M[dk, d, d][:, None, None]
            pos = np.arange(S)[None, :]
            src = np.minimum(pos + (pos >= d[:, None]), S - 1)
            keep = pos < (nact[dk] - 1)[:, None]
            M[dk] = (M[dk[:, None, None], src[:, :, None], src[:, None, :]]
                     * (keep[:, :, None] & keep[:, None, :]))
            atom, sign = act[dk, d], sgn[dk, d]
            act[dk] = np.where(keep, np.take_along_axis(act[dk], src, 1), 0)
            sgn[dk] = np.where(keep, np.take_along_axis(sgn[dk], src, 1), 0.0)
            sel[dk, :, atom] = True
            blocked[dk] = np.where(sign < 0, k, 0) + atom
            sel.reshape(L, 2 * k)[dk, blocked[dk]] = False
            nact[dk] -= 1

    # rows still live here have spent max_iter steps: their paths fail
    ok[status >= 0] = True
    for size in range(1, status.max() + 1):
        r = np.flatnonzero(status == size)
        if r.size:
            a = ends[r, :size]
            end = C0[r[:, None], a] - half_lam * end_sgn[r, :size]
            sol = np.linalg.solve(G[a[:, :, None], a[:, None, :]], end[:, :, None])
            codes[r[:, None], a] = sol[:, :, 0]


def _homotopy(X: np.ndarray, atoms: np.ndarray, G: np.ndarray, lam: float,
              tol: float, max_iter: int, lockstep: bool = False
              ) -> Tuple[np.ndarray, np.ndarray]:
    """Exact LASSO codes of the rows of X, one homotopy path per row: all
    rows together in _lockstep with `lockstep`, else _path row by row.

    A row is flagged False, with a meaningless code, when its path fails
    (see _path) or when its end point does not pass the KKT test at tol,
    which rounding could break."""
    m, k = X.shape[0], atoms.shape[1]
    C0 = X @ atoms
    codes = np.zeros((m, k))
    ok = np.zeros(m, dtype=bool)
    if lockstep:
        _lockstep(C0, G, 0.5 * lam, max_iter, codes, ok)
    else:
        for i in range(m):
            end = _path(C0[i], G, 0.5 * lam, max_iter)
            if end is not None:
                codes[i, end[0]] = end[1]
                ok[i] = True
    ok[ok] = _row_kkt(X[ok], atoms, codes[ok], lam) < tol
    return codes, ok


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
        done = max_delta < tol  # then the KKT test, on those rows only
        if done.any():
            done[done] = _kkt(2.0 * (atoms.T @ R[:, done]), Y[:, done], lam) < tol
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
    _check_type(d, Dictionary, "d")
    _check_type(cfg, SolverConfig, "cfg")
    X = _as_finite(xs, 2, d.input_dim, "examples")
    G = d.atoms.T @ d.atoms
    args = (d.atoms, G, cfg.lam, cfg.tol, cfg.max_iter)
    codes, converged = _homotopy(X, *args, lockstep=X.shape[0] >= _LOCKSTEP_MIN_ROWS)
    rest = np.flatnonzero(~converged)
    if rest.size:
        codes[rest], converged[rest] = _cd_vector(X[rest], *args)
    return codes, converged
