"""Solver contracts: the LASSO engine (the homotopy and its coordinate
descent fallback) and its diagnostics."""

import tracemalloc
import warnings

import numpy as np
import pytest

from mmsparse.errors import InputError
from mmsparse.solvers import (
    Dictionary,
    SolverConfig,
    _homotopy,
    _path,
    kkt_violation,
    lasso_encode_batch,
)

from helpers import (
    lasso_objective,
    lasso_objective_ref,
    path_reference,
    proximal_gradient_lasso,
    unit_column_dictionary,
)


def identity_dictionary(n):
    return Dictionary(np.eye(n))


class TestDictionaryType:
    def test_rejects_non_unit_columns(self):
        with pytest.raises(InputError):
            Dictionary(np.array([[2.0, 0.0], [0.0, 1.0]]))

    def test_split_style_columns_allowed_when_flagged(self):
        d = Dictionary(np.array([[2.0, 0.0], [0.0, 0.5]]), normalized=False)
        assert d.atom_count == 2

    def test_rejects_nonfinite(self):
        atoms = np.eye(2)
        atoms[0, 0] = np.nan
        with pytest.raises(InputError):
            Dictionary(atoms)

    def test_atoms_are_immutable(self):
        d = identity_dictionary(2)
        with pytest.raises(ValueError):
            d.atoms[0, 0] = 5.0


class TestSolverConfig:
    def test_rejects_nonfinite_or_nonpositive_tol(self):
        for tol in (float("inf"), float("nan"), 0.0, -1e-8):
            with pytest.raises(InputError):
                SolverConfig(lam=0.1, tol=tol)

    def test_rejects_non_integer_or_small_max_iter(self):
        for max_iter in (2.5, 1.0, True, 0, -3, "10"):
            with pytest.raises(InputError):
                SolverConfig(lam=0.1, max_iter=max_iter)

    def test_boundary_values_accepted(self):
        assert SolverConfig(lam=0.0, tol=5e-324, max_iter=1).max_iter == 1
        assert SolverConfig(lam=0.1, tol=1e300, max_iter=np.int64(7)).max_iter == 7


class TestLassoEncode:
    # one-row calls of the engine, read at row 0

    def test_zero_input_gives_zero_code(self):
        d = unit_column_dictionary(np.random.default_rng(0), 4, 6)
        (y,), (ok,) = lasso_encode_batch(np.zeros(4)[None, :], d, SolverConfig(lam=0.5))
        assert not y.any()
        assert ok

    def test_orthonormal_soft_threshold_oracle(self):
        # For D = I the LASSO solution is the soft threshold at lam/2:
        # y_k = sign(x_k) * max(|x_k| - lam/2, 0).
        d = identity_dictionary(2)
        (y,), _ = lasso_encode_batch(np.array([1.0, 0.2])[None, :], d, SolverConfig(lam=0.5))
        np.testing.assert_allclose(y, [0.75, 0.0], atol=1e-12)
        assert np.flatnonzero(y).tolist() == [0]

    def test_orthonormal_oracle_random(self):
        rng = np.random.default_rng(7)
        for _ in range(20):
            n = int(rng.integers(2, 8))
            basis = np.linalg.qr(rng.standard_normal((n, n)))[0]
            d = Dictionary(basis / np.linalg.norm(basis, axis=0, keepdims=True))
            x = rng.standard_normal(n)
            lam = float(rng.uniform(0.0, 1.0))
            z = basis.T @ x
            expect = np.sign(z) * np.maximum(np.abs(z) - lam / 2.0, 0.0)
            (y,), _ = lasso_encode_batch(x[None, :], d, SolverConfig(lam=lam))
            np.testing.assert_allclose(y, expect, atol=1e-8)

    def test_matches_proximal_gradient_oracle(self):
        rng = np.random.default_rng(11)
        d = unit_column_dictionary(rng, 6, 10)
        x = rng.standard_normal(6)
        cfg = SolverConfig(lam=0.3)
        (y,), _ = lasso_encode_batch(x[None, :], d, cfg)
        y_ref = proximal_gradient_lasso(x, d.atoms, cfg.lam)
        obj = lasso_objective_ref(x, d.atoms, y, cfg.lam)
        obj_ref = lasso_objective_ref(x, d.atoms, y_ref, cfg.lam)
        assert abs(obj - obj_ref) <= 1e-6

    def test_kkt_postcondition_random(self):
        rng = np.random.default_rng(3)
        for _ in range(25):
            n = int(rng.integers(2, 12))
            k = int(rng.integers(1, 20))
            d = unit_column_dictionary(rng, n, k)
            x = rng.standard_normal(n) * float(rng.uniform(0.5, 3.0))
            lam = float(rng.uniform(0.0, 1.0))
            cfg = SolverConfig(lam=lam)
            (y,), (ok,) = lasso_encode_batch(x[None, :], d, cfg)
            assert ok
            assert kkt_violation(x, d, y, lam) <= cfg.tol

    def test_lambda_zero_square_system_is_linear_solve(self):
        rng = np.random.default_rng(5)
        a = rng.standard_normal((5, 5)) + 3.0 * np.eye(5)
        d = Dictionary(a / np.linalg.norm(a, axis=0, keepdims=True), normalized=False)
        x = rng.standard_normal(5)
        (y,), _ = lasso_encode_batch(x[None, :], d, SolverConfig(lam=0.0, max_iter=20000))
        np.testing.assert_allclose(y, np.linalg.solve(d.atoms, x), atol=1e-6)

    def test_objective_nonincreasing_per_sweep(self):
        rng = np.random.default_rng(13)
        for _ in range(10):
            d = unit_column_dictionary(rng, 6, 12)
            x = rng.standard_normal(6)
            # A budget of t below the homotopy's path length sends the row
            # to coordinate descent, which stops after t sweeps; CD is
            # deterministic, so t = 1, 2, ... replays its sweeps one by one
            # up to the path length, and from there the exact end point.
            trace = []
            for t in range(1, SolverConfig(lam=0.2).max_iter + 1):
                (y,), (ok,) = lasso_encode_batch(x[None, :], d, SolverConfig(lam=0.2, max_iter=t))
                trace.append(lasso_objective_ref(x, d.atoms, y, 0.2))
                if ok:
                    break
            assert len(trace) > 1
            diffs = np.diff(np.asarray(trace))
            assert np.all(diffs <= 1e-12)

    def test_deterministic_bitwise(self):
        rng = np.random.default_rng(17)
        d = unit_column_dictionary(rng, 8, 16)
        x = rng.standard_normal(8)
        cfg = SolverConfig(lam=0.4)
        (a,), _ = lasso_encode_batch(x[None, :], d, cfg)
        (b,), _ = lasso_encode_batch(x[None, :], d, cfg)
        assert a.tobytes() == b.tobytes()

    def test_dimension_mismatch(self):
        d = identity_dictionary(3)
        with pytest.raises(InputError):
            lasso_encode_batch(np.zeros(2)[None, :], d, SolverConfig(lam=0.1))

    def test_nonconvergence_flag(self):
        rng = np.random.default_rng(23)
        d = unit_column_dictionary(rng, 6, 12)
        x = rng.standard_normal(6)
        _, (ok,) = lasso_encode_batch(x[None, :], d, SolverConfig(lam=0.01, tol=1e-12, max_iter=1))
        assert not ok


class TestLassoBatch:
    def test_matches_single_encodes(self):
        rng = np.random.default_rng(31)
        d = unit_column_dictionary(rng, 6, 10)
        cfg = SolverConfig(lam=0.25)
        for m in (7, 35):
            xs = rng.standard_normal((m, 6))
            codes, ok = lasso_encode_batch(xs, d, cfg)
            assert ok.all()
            for i in range(m):
                (yi,), _ = lasso_encode_batch(xs[i][None, :], d, cfg)
                np.testing.assert_allclose(codes[i], yi, atol=1e-9)

    def test_batch_kkt(self):
        rng = np.random.default_rng(37)
        d = unit_column_dictionary(rng, 8, 20)
        xs = rng.standard_normal((15, 8))
        cfg = SolverConfig(lam=0.3, max_iter=20000)
        codes, ok = lasso_encode_batch(xs, d, cfg)
        assert ok.all()
        for i in range(15):
            assert kkt_violation(xs[i], d, codes[i], cfg.lam) <= cfg.tol

    def test_large_batch_takes_the_homotopy(self):
        # however many rows a call has, each row's code and flag are its
        # homotopy path's, to the bit
        rng = np.random.default_rng(41)
        d = unit_column_dictionary(rng, 8, 32)
        cfg = SolverConfig(lam=0.3)
        for m in (32, 170):
            xs = rng.standard_normal((m, 8)) * 2.0
            codes, ok = lasso_encode_batch(xs, d, cfg)
            path_codes, path_ok = _homotopy(
                xs, d.atoms, d.atoms.T @ d.atoms, cfg.lam, cfg.tol, cfg.max_iter)
            assert path_ok.all()
            np.testing.assert_array_equal(ok, path_ok)
            assert codes.tobytes() == path_codes.tobytes()

    def test_large_call_peak_memory(self):
        # The lockstep holds every live row's padded state at once, so the
        # peak grows with a call's rows: 43.2 MB for this call with NumPy
        # 2.4. A step's copy of the inverse stack kept alive into the next
        # step raises it to 47.7 MB.
        rng = np.random.default_rng(43)
        d = unit_column_dictionary(rng, 20, 32)
        xs = rng.standard_normal((4000, 20))
        tracemalloc.start()
        try:
            _, ok = lasso_encode_batch(xs, d, SolverConfig(lam=0.4))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert ok.all()
        assert peak < 46e6


def homotopy_fails(xs, d, cfg, lockstep=False):
    """Rows of xs whose homotopy path the engine gives up on."""
    G = d.atoms.T @ d.atoms
    _, ok = _homotopy(xs, d.atoms, G, cfg.lam, cfg.tol, cfg.max_iter, lockstep=lockstep)
    return ~ok


def exact_kkt_bound(x, d):
    """KKT violation left by an exact solve, up to rounding."""
    return 1e-12 * max(1.0, float(np.max(np.abs(2.0 * d.atoms.T @ x))))


def assert_rows_are_single_solves(xs, d, cfg):
    """Every row of the batch is its own one-row solve, converged or not
    alike; returns the batch's codes and flags."""
    codes, ok = lasso_encode_batch(xs, d, cfg)
    for i, x in enumerate(xs):
        (yi,), (yi_ok,) = lasso_encode_batch(x[None, :], d, cfg)
        assert yi_ok == ok[i]
        np.testing.assert_allclose(codes[i], yi, rtol=0, atol=1e-9)
    return codes, ok


class TestHomotopyPath:
    def test_random_rows_need_no_fallback(self):
        # on generic data every path reaches lam/2 and passes the KKT test;
        # the fallbacks below are for degenerate input and spent budgets
        rng = np.random.default_rng(43)
        for trial in range(60):
            n, k = int(rng.integers(1, 11)), int(rng.integers(1, 17))
            d = unit_column_dictionary(rng, n, k)
            if trial % 2:
                d = Dictionary(d.atoms * rng.uniform(0.2, 3.0, size=k), normalized=False)
            xs = rng.standard_normal((8, n)) * rng.uniform(0.5, 3.0)
            cfg = SolverConfig(lam=float(rng.uniform(0.05, 2.0)))
            assert not homotopy_fails(xs, d, cfg).any()

    def test_twin_atoms_rows_are_exact_single_solves(self):
        # Atoms 0 and 2 are the same vector, so row 0's optimum is not
        # unique. Every row of the 40-row batch, row 0 included, is still
        # its own one-row solve and exact up to rounding.
        e = np.eye(4)
        atoms = np.column_stack([e[0], [-0.6, 0.8, 0, 0], e[0], e[2], e[3], [0, 0.6, 0.8, 0]])
        d = Dictionary(atoms)
        rng = np.random.default_rng(1)
        xs = np.zeros((40, 4))
        xs[:, 1] = 0.3 * rng.standard_normal(40)
        xs[:, 2:] = 2.0 * rng.standard_normal((40, 2))
        xs[0] = [3.0, 2.0, 0.0, 0.0]
        cfg = SolverConfig(lam=0.5)
        codes, ok = assert_rows_are_single_solves(xs, d, cfg)
        assert ok.all()
        for x, y in zip(xs, codes):
            assert kkt_violation(x, d, y, cfg.lam) <= exact_kkt_bound(x, d)

    def test_drop_and_rejoin_matches_reference(self):
        # Atom 4 joins with sign -1 at mu = 0.97, leaves at mu = 0.34 and at
        # the very next event rejoins with sign +1: the branch of its old
        # sign is barred for that one step. At each lam the code is the
        # reference path's to the byte and passes the KKT test at tol.
        rng = np.random.default_rng(528)
        atoms = rng.standard_normal((3, 5))
        d = Dictionary(atoms / np.linalg.norm(atoms, axis=0))
        x = 2.0 * rng.standard_normal(3)
        c0, G = d.atoms.T @ x, d.atoms.T @ d.atoms
        signs = []
        for lam in (1.0, 0.4, 0.2):
            active, y_A = _path(c0, G, 0.5 * lam, 1000)
            ref_active, ref_y = path_reference(c0, G, 0.5 * lam, 1000)
            assert active == ref_active and y_A.tobytes() == ref_y.tobytes()
            (code,), (ok,) = lasso_encode_batch(x[None, :], d, SolverConfig(lam=lam))
            assert ok
            np.testing.assert_array_equal(code[active], y_A)
            assert kkt_violation(x, d, code, lam) <= SolverConfig(lam=lam).tol
            signs.append(np.sign(code[4]))
        assert signs == [-1.0, 0.0, 1.0]
        # 4 events after the first atom, then the end: 3 joins and 1 leave
        assert _path(c0, G, 0.1, 4) is None
        assert len(_path(c0, G, 0.1, 5)[0]) == 3


_E = np.eye(4)
_THETA = np.arccos(1.0 - 1e-7)


class TestLockstepCloseCalls:
    # Close calls whose rounding the lockstep could decide unlike _path:
    # tied candidates, an open branch's 1 -+ q_j or an active w_j near 0,
    # and a small joining pivot. Each is set up on one row (two for the
    # ties) of an 18-row batch; the other rows lie in span(e2, e3), away
    # from the atoms that set it up. Case: (atoms, lam, filler seed, the
    # set-up rows by index).
    CASES = {
        # D = I: row 3's atoms 1 and 2 join at mu = 2 together, and row 7's
        # atom 1 joins at mu = 0.5 = lam/2
        "top_two_candidates_near": (
            _E, 1.0, 1, {3: [3.0, 2.0, 2.0, 0.0], 7: [3.0, 0.5, 0.0, 0.0]}),
        # atom 4 is 1e-7 from atom 0 in cosine: with atom 0 active at +1,
        # atom 4's +mu branch has 1 - q = 1e-7
        "open_branch_q_near_one": (
            np.column_stack([_E, np.cos(_THETA) * _E[0] + np.sin(_THETA) * _E[1]]),
            0.5, 2, {5: [3.0, -1.0, 0.5, 0.2]}),
        # atom 1 = e0 + e1 joins first and atom 0 = e0 joins it at +1; then
        # w = G_AA^-1 s_A = (0, 1), so y_1 stands still
        "active_w_near_zero": (
            np.column_stack([_E[0], _E[0] + _E[1], _E[2], _E[3]]),
            0.5, 3, {9: [2.0, 1.0, 0.0, 0.0]}),
        # atom 1 = 2 e0 + 1e-4 e1 joins first; atom 0 = e0, all but in its
        # span, joins at mu = 3.3e-5 with a pivot of 2.5e-9 of G_jj, above
        # _PIVOT_RTOL, while its 1 -+ q is 0.5 or 1.5
        "joining_pivot_small": (
            np.column_stack([_E[0], 2.0 * _E[0] + 1e-4 * _E[1], _E[2], _E[3]]),
            2e-5, 4, {11: [1.0, 1.0, 0.0, 0.0]}),
    }

    @pytest.mark.parametrize("case", sorted(CASES))
    def test_codes_and_flags_are_the_paths(self, case):
        atoms, lam, seed, rows = self.CASES[case]
        X = np.zeros((18, 4))
        X[:, 2:] = 2.0 * np.random.default_rng(seed).standard_normal((18, 2))
        for i, x in rows.items():
            X[i] = x
        G = atoms.T @ atoms
        codes, ok = _homotopy(X, atoms, G, lam, 1e-8, 1000)
        step_codes, step_ok = _homotopy(X, atoms, G, lam, 1e-8, 1000, lockstep=True)
        assert ok.all()
        np.testing.assert_array_equal(step_ok, ok)
        assert step_codes.tobytes() == codes.tobytes()


class TestFallbacks:
    # A row the homotopy cannot finish goes to coordinate descent; each
    # case checks that the path does fail there.

    def test_duplicated_atom_singular_active_set(self):
        # atom 4 repeats atom 0 up to 1e-7: both join, and G_AA is singular
        rng = np.random.default_rng(39)
        atoms = rng.standard_normal((3, 4))
        atoms /= np.linalg.norm(atoms, axis=0)
        twin = atoms[:, 0] + 1e-7 * rng.standard_normal(3)
        d = Dictionary(np.column_stack([atoms, twin / np.linalg.norm(twin)]))
        x = 2.0 * rng.standard_normal(3)
        xs = np.stack([x, -x, 0.5 * x, x + 0.1])
        cfg = SolverConfig(lam=0.3)
        # the 4-row call runs _path; an 18-row call of these rows, rescaled,
        # runs the lockstep, which fails them at its own pivot test
        batch = np.concatenate([s * xs for s in (1.0, 0.8, 1.2, 1.5, 0.6)])[:18]
        assert homotopy_fails(xs, d, cfg).all()
        assert homotopy_fails(batch, d, cfg, lockstep=True).all()
        for rows in (xs, batch):
            codes, ok = assert_rows_are_single_solves(rows, d, cfg)
            assert ok.all()
            for x, y in zip(rows, codes):
                assert kkt_violation(x, d, y, cfg.lam) <= cfg.tol

    def test_lambda_zero_more_atoms_than_dims(self):
        rng = np.random.default_rng(0)
        d = unit_column_dictionary(rng, 3, 6)
        xs = rng.standard_normal((5, 3))
        cfg = SolverConfig(lam=0.0)
        assert homotopy_fails(xs, d, cfg).all()
        codes, ok = assert_rows_are_single_solves(xs, d, cfg)
        assert ok.all()
        for x, y in zip(xs, codes):
            assert kkt_violation(x, d, y, 0.0) <= cfg.tol

    def test_step_budget_below_path_length(self):
        rng = np.random.default_rng(23)
        d = unit_column_dictionary(rng, 6, 12)
        xs = rng.standard_normal((4, 6))
        cfg = SolverConfig(lam=0.2, max_iter=1)
        assert homotopy_fails(xs, d, cfg).all()
        assert not homotopy_fails(xs, d, SolverConfig(lam=0.2)).any()
        _, ok = assert_rows_are_single_solves(xs, d, cfg)
        assert not ok.any()  # one CD sweep does not converge either
        # in a larger batch, rows whose path has one step (x = 3 d_j) still
        # finish within the one-step budget
        one_step = 3.0 * d.atoms.T[rng.integers(0, 12, size=32)]
        xs = np.vstack([xs, one_step])
        _, ok = assert_rows_are_single_solves(xs, d, cfg)
        assert ok.tolist() == [False] * 4 + [True] * 32
        # D = I: a 3-step path, but CD is exact after one sweep and sees
        # that after the second
        x = np.array([[3.0, -2.0, 1.0]])
        cfg = SolverConfig(lam=0.5, max_iter=2)
        assert homotopy_fails(x, identity_dictionary(3), cfg).all()
        codes, ok = assert_rows_are_single_solves(x, identity_dictionary(3), cfg)
        assert ok.all()
        np.testing.assert_allclose(codes[0], [2.75, -1.75, 0.75], rtol=0, atol=1e-15)


    def test_zero_norm_atom_is_skipped(self):
        # atom 2 is all zeros: descent leaves its coefficient at 0 rather
        # than divide by its zero squared norm
        rng = np.random.default_rng(47)
        atoms = rng.standard_normal((4, 5))
        atoms[:, 2] = 0.0
        d = Dictionary(atoms, normalized=False)
        xs = 2.0 * rng.standard_normal((3, 4))
        cfg = SolverConfig(lam=0.05, max_iter=1)
        assert homotopy_fails(xs, d, cfg).all()
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            codes, _ = lasso_encode_batch(xs, d, cfg)
        assert not codes[:, 2].any()


class TestKktViolation:
    def test_hand_case(self):
        d = identity_dictionary(1)
        assert kkt_violation(np.array([1.0]), d, np.array([0.0]), 0.0) == pytest.approx(2.0)

    def test_zero_optimal_when_lambda_dominates(self):
        rng = np.random.default_rng(41)
        d = unit_column_dictionary(rng, 4, 7)
        x = 0.01 * rng.standard_normal(4)
        lam = float(np.max(np.abs(2.0 * d.atoms.T @ x))) + 0.1
        assert kkt_violation(x, d, np.zeros(7), lam) == 0.0

    def test_dimension_mismatch(self):
        d = identity_dictionary(2)
        with pytest.raises(InputError):
            kkt_violation(np.zeros(2), d, np.zeros(3), 0.1)


class TestLassoObjective:
    def test_matches_reference(self):
        rng = np.random.default_rng(73)
        d = unit_column_dictionary(rng, 5, 8)
        x = rng.standard_normal(5)
        y = rng.standard_normal(8)
        assert lasso_objective(x, d, y, 0.7) == pytest.approx(
            lasso_objective_ref(x, d.atoms, y, 0.7), abs=1e-12
        )
