"""Solver contracts: LASSO coordinate descent, OMP, and their diagnostics."""

import numpy as np
import pytest

from mmsparse.errors import InputError
from mmsparse.solvers import (
    Dictionary,
    SolverConfig,
    SparseCode,
    _VECTOR_SWEEP_MIN_ROWS,
    kkt_violation,
    lasso_encode,
    lasso_encode_batch,
    lasso_objective,
    omp_encode,
    reconstruction_error,
)

from helpers import (
    lasso_objective_ref,
    low_coherence_dictionary,
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

    def test_rejects_bad_modality_dims(self):
        with pytest.raises(InputError):
            Dictionary(np.eye(3), modality_dims=(1, 1))

    def test_rejects_nonfinite(self):
        atoms = np.eye(2)
        atoms[0, 0] = np.nan
        with pytest.raises(InputError):
            Dictionary(atoms)

    def test_atoms_are_immutable(self):
        d = identity_dictionary(2)
        with pytest.raises(ValueError):
            d.atoms[0, 0] = 5.0


class TestSparseCodeType:
    def test_support_must_match(self):
        with pytest.raises(InputError):
            SparseCode(coeffs=np.array([1.0, 0.0]), support=(1,))

    def test_from_coeffs_builds_support(self):
        c = SparseCode.from_coeffs(np.array([0.0, -2.0, 3.0]))
        assert c.support == (1, 2)
        assert c.nnz == 2


class TestLassoEncode:
    def test_zero_input_gives_zero_code(self):
        d = unit_column_dictionary(np.random.default_rng(0), 4, 6)
        y = lasso_encode(np.zeros(4), d, SolverConfig(lam=0.5))
        assert y.support == ()
        assert y.converged

    def test_orthonormal_soft_threshold_oracle(self):
        # For D = I the LASSO solution is the soft threshold at lam/2:
        # y_k = sign(x_k) * max(|x_k| - lam/2, 0).
        d = identity_dictionary(2)
        y = lasso_encode(np.array([1.0, 0.2]), d, SolverConfig(lam=0.5))
        np.testing.assert_allclose(y.coeffs, [0.75, 0.0], atol=1e-12)
        assert y.support == (0,)

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
            y = lasso_encode(x, d, SolverConfig(lam=lam))
            np.testing.assert_allclose(y.coeffs, expect, atol=1e-8)

    def test_matches_proximal_gradient_oracle(self):
        rng = np.random.default_rng(11)
        d = unit_column_dictionary(rng, 6, 10)
        x = rng.standard_normal(6)
        cfg = SolverConfig(lam=0.3)
        y = lasso_encode(x, d, cfg)
        y_ref = proximal_gradient_lasso(x, d.atoms, cfg.lam)
        obj = lasso_objective_ref(x, d.atoms, y.coeffs, cfg.lam)
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
            y = lasso_encode(x, d, cfg)
            assert y.converged
            assert kkt_violation(x, d, y, lam) <= cfg.tol

    def test_lambda_zero_square_system_is_linear_solve(self):
        rng = np.random.default_rng(5)
        a = rng.standard_normal((5, 5)) + 3.0 * np.eye(5)
        d = Dictionary(a / np.linalg.norm(a, axis=0, keepdims=True), normalized=False)
        x = rng.standard_normal(5)
        y = lasso_encode(x, d, SolverConfig(lam=0.0, max_iter=20000))
        np.testing.assert_allclose(y.coeffs, np.linalg.solve(d.atoms, x), atol=1e-6)

    def test_objective_nonincreasing_per_sweep(self):
        rng = np.random.default_rng(13)
        for _ in range(10):
            d = unit_column_dictionary(rng, 6, 12)
            x = rng.standard_normal(6)
            # CD is deterministic: stopping after t = 1, 2, ..., T sweeps
            # replays one solve sweep by sweep, to convergence or max_iter.
            trace = []
            for t in range(1, SolverConfig(lam=0.2).max_iter + 1):
                y = lasso_encode(x, d, SolverConfig(lam=0.2, max_iter=t))
                trace.append(lasso_objective_ref(x, d.atoms, y.coeffs, 0.2))
                if y.converged:
                    break
            assert len(trace) > 1
            diffs = np.diff(np.asarray(trace))
            assert np.all(diffs <= 1e-12)

    def test_deterministic_bitwise(self):
        rng = np.random.default_rng(17)
        d = unit_column_dictionary(rng, 8, 16)
        x = rng.standard_normal(8)
        cfg = SolverConfig(lam=0.4)
        a = lasso_encode(x, d, cfg)
        b = lasso_encode(x, d, cfg)
        assert a.coeffs.tobytes() == b.coeffs.tobytes()

    def test_dimension_mismatch(self):
        d = identity_dictionary(3)
        with pytest.raises(InputError):
            lasso_encode(np.zeros(2), d, SolverConfig(lam=0.1))

    def test_nonconvergence_flag(self):
        rng = np.random.default_rng(23)
        d = unit_column_dictionary(rng, 6, 12)
        x = rng.standard_normal(6)
        y = lasso_encode(x, d, SolverConfig(lam=0.01, tol=1e-12, max_iter=1))
        assert not y.converged

    def test_support_matches_nonzeros_always(self):
        rng = np.random.default_rng(29)
        for _ in range(10):
            d = unit_column_dictionary(rng, 5, 9)
            x = rng.standard_normal(5)
            y = lasso_encode(x, d, SolverConfig(lam=0.3))
            assert y.support == tuple(np.flatnonzero(y.coeffs))


class TestLassoBatch:
    def test_matches_single_encodes(self):
        rng = np.random.default_rng(31)
        d = unit_column_dictionary(rng, 6, 10)
        cfg = SolverConfig(lam=0.25)
        # one batch on each side of the switch from scalar to vector sweeps
        for m in (7, _VECTOR_SWEEP_MIN_ROWS + 3):
            xs = rng.standard_normal((m, 6))
            codes, ok = lasso_encode_batch(xs, d, cfg)
            assert ok.all()
            for i in range(m):
                yi = lasso_encode(xs[i], d, cfg)
                np.testing.assert_allclose(codes[i], yi.coeffs, atol=1e-9)

    def test_batch_kkt(self):
        rng = np.random.default_rng(37)
        d = unit_column_dictionary(rng, 8, 20)
        xs = rng.standard_normal((15, 8))
        cfg = SolverConfig(lam=0.3, max_iter=20000)
        codes, ok = lasso_encode_batch(xs, d, cfg)
        assert ok.all()
        for i in range(15):
            assert kkt_violation(xs[i], d, codes[i], cfg.lam) <= cfg.tol


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


class TestReconstructionError:
    def test_exact_code_gives_zero(self):
        rng = np.random.default_rng(43)
        d = unit_column_dictionary(rng, 5, 5)
        y = rng.standard_normal(5)
        x = d.atoms @ y
        assert reconstruction_error(x, d, y) <= 1e-20

    def test_identity_case(self):
        d = identity_dictionary(2)
        assert reconstruction_error(np.array([1.0, 0.0]), d, np.zeros(2)) == pytest.approx(1.0)

    def test_matches_naive_double_loop(self):
        rng = np.random.default_rng(47)
        d = unit_column_dictionary(rng, 6, 9)
        x = rng.standard_normal(6)
        y = rng.standard_normal(9)
        total = 0.0
        for i in range(6):
            acc = x[i]
            for j in range(9):
                acc -= d.atoms[i, j] * y[j]
            total += acc * acc
        assert reconstruction_error(x, d, y) == pytest.approx(total, abs=1e-12)


class TestOmpEncode:
    def test_single_exact_atom(self):
        rng = np.random.default_rng(53)
        d = unit_column_dictionary(rng, 8, 10)
        x = 3.0 * d.atoms[:, 5]
        y = omp_encode(x, d, 1)
        assert y.support == (5,)
        assert y.coeffs[5] == pytest.approx(3.0, abs=1e-9)

    def test_zero_sparsity(self):
        rng = np.random.default_rng(59)
        d = unit_column_dictionary(rng, 4, 6)
        y = omp_encode(rng.standard_normal(4), d, 0)
        assert y.support == ()

    def test_sparsity_exceeds_atoms(self):
        d = identity_dictionary(2)
        with pytest.raises(InputError):
            omp_encode(np.zeros(2), d, 3)

    def test_planted_recovery(self):
        rng = np.random.default_rng(61)
        d = low_coherence_dictionary(rng, 16, 32)
        support = rng.choice(32, size=3, replace=False)
        coeffs = np.zeros(32)
        coeffs[support] = rng.uniform(1.0, 2.0, size=3)
        x = d.atoms @ coeffs
        y = omp_encode(x, d, 3)
        assert set(y.support) == set(int(i) for i in support)
        np.testing.assert_allclose(y.coeffs, coeffs, atol=1e-8)

    def test_residual_orthogonal_to_selected(self):
        rng = np.random.default_rng(67)
        for _ in range(10):
            d = unit_column_dictionary(rng, 12, 24)
            x = rng.standard_normal(12)
            y = omp_encode(x, d, 5)
            r = x - d.atoms @ y.coeffs
            for j in y.support:
                assert abs(d.atoms[:, j] @ r) <= 1e-8

    def test_residual_norm_nonincreasing_in_sparsity(self):
        rng = np.random.default_rng(71)
        d = unit_column_dictionary(rng, 10, 20)
        x = rng.standard_normal(10)
        errs = [
            np.linalg.norm(x - d.atoms @ omp_encode(x, d, s).coeffs)
            for s in range(0, 8)
        ]
        assert all(b <= a + 1e-12 for a, b in zip(errs, errs[1:]))

    def test_duplicate_atom_rank_deficiency_flagged(self):
        col = np.array([1.0, 0.0])
        d = Dictionary(np.stack([col, col], axis=1))
        y = omp_encode(np.array([2.0, 1.0]), d, 2)
        assert not y.converged
        assert len(y.support) == 1


class TestLassoObjective:
    def test_matches_reference(self):
        rng = np.random.default_rng(73)
        d = unit_column_dictionary(rng, 5, 8)
        x = rng.standard_normal(5)
        y = rng.standard_normal(8)
        assert lasso_objective(x, d, y, 0.7) == pytest.approx(
            lasso_objective_ref(x, d.atoms, y, 0.7), abs=1e-12
        )
