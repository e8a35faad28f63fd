"""Joint coding: fusion scaling, dictionary decomposition, the l1-weight
relationship, and the exact objective-splitting identity."""

import numpy as np
import pytest

from mmsparse.dictlearn import LearnConfig
from mmsparse.errors import InputError
from mmsparse.multimodal import (
    JointDictionary,
    ModalityPair,
    encode_cross_modal,
    fuse_rows,
    lambda_joint_of,
    learn_joint,
    split_joint,
    union_features,
)
from mmsparse.solvers import Dictionary, SolverConfig, kkt_violation, lasso_encode_batch

from helpers import lasso_objective, unit_column_dictionary


def random_joint(rng, na, nv, k) -> JointDictionary:
    return JointDictionary(unit_column_dictionary(rng, na + nv, k), (na, nv))


def fuse_one(x_a, x_v):
    """One audio and one video vector fused: a one-row fuse_rows."""
    return fuse_rows([x_a], [x_v])[0]


class TestFuseInput:
    def test_sqrt_one_is_identity(self):
        np.testing.assert_array_equal(fuse_one([2.0], [3.0]), [2.0, 3.0])

    def test_scaling(self):
        fused = fuse_one([2.0, 0.0, 0.0, 0.0], [0.0])
        np.testing.assert_allclose(fused, [1.0, 0.0, 0.0, 0.0, 0.0])

    def test_norm_identity(self):
        rng = np.random.default_rng(0)
        for _ in range(20):
            na = int(rng.integers(1, 10))
            nv = int(rng.integers(1, 10))
            xa = rng.standard_normal(na)
            xv = rng.standard_normal(nv)
            fused = fuse_one(xa, xv)
            expect = xa @ xa / na + xv @ xv / nv
            assert np.sum(fused * fused) == pytest.approx(expect, abs=1e-12)

    def test_linearity(self):
        rng = np.random.default_rng(1)
        xa1, xa2 = rng.standard_normal((2, 5))
        xv1, xv2 = rng.standard_normal((2, 3))
        a, b = 1.7, -0.4
        lhs = fuse_one(a * xa1 + b * xa2, a * xv1 + b * xv2)
        rhs = a * fuse_one(xa1, xv1) + b * fuse_one(xa2, xv2)
        np.testing.assert_allclose(lhs, rhs, atol=1e-12)

    def test_fuse_rows_matches_per_row(self):
        rng = np.random.default_rng(2)
        A = rng.standard_normal((4, 6))
        V = rng.standard_normal((4, 3))
        fused = fuse_rows(A, V)
        for i in range(4):
            np.testing.assert_allclose(fused[i], fuse_one(A[i], V[i]), atol=1e-15)


class TestLearnJoint:
    def test_identical_pairs_rank_one(self):
        rng = np.random.default_rng(3)
        xa = rng.standard_normal(4)
        xv = rng.standard_normal(2)
        pairs = [(xa, xv)] * 5
        jd, stats = learn_joint(pairs, LearnConfig(atom_count=1, lam=0.0, epochs=10, seed=0))
        fused = fuse_one(xa, xv)
        direction = fused / np.linalg.norm(fused)
        atom = jd.inner.atoms[:, 0]
        assert min(
            np.linalg.norm(atom - direction), np.linalg.norm(atom + direction)
        ) <= 1e-8
        assert jd.modality_dims == (4, 2)

    def test_planted_joint_recovery(self):
        rng = np.random.default_rng(4)
        na, nv, k = 5, 3, 4
        while True:
            atoms = rng.standard_normal((na + nv, k))
            atoms /= np.linalg.norm(atoms, axis=0, keepdims=True)
            gram = np.abs(atoms.T @ atoms)
            np.fill_diagonal(gram, 0.0)
            if gram.max() < 0.5:
                break
        which = rng.integers(0, k, size=150)
        coef = rng.uniform(1.0, 2.0, size=150)
        fused = (atoms[:, which] * coef).T
        # Un-fuse to raw modality vectors so learn_joint re-fuses them.
        pairs = [
            (row[:na] * np.sqrt(na), row[na:] * np.sqrt(nv)) for row in fused
        ]
        jd, _ = learn_joint(pairs, LearnConfig(atom_count=k, lam=0.01, epochs=300, seed=1))
        sims = np.abs(atoms.T @ jd.inner.atoms).max(axis=1)
        assert np.all(sims >= 0.99)

    def test_empty_pairs_rejected(self):
        with pytest.raises(InputError):
            learn_joint([], LearnConfig(atom_count=1, lam=0.1))

    def test_inconsistent_dims_rejected(self):
        pairs = [(np.ones(3), np.ones(2)), (np.ones(4), np.ones(2))]
        with pytest.raises(InputError):
            learn_joint(pairs, LearnConfig(atom_count=1, lam=0.1))


class TestSplitJoint:
    def test_scalar_blocks(self):
        atoms = np.array([[0.6], [0.8]])
        jd = JointDictionary(Dictionary(atoms), (1, 1))
        da, dv = split_joint(jd)
        np.testing.assert_allclose(da.atoms, [[0.6]])
        np.testing.assert_allclose(dv.atoms, [[0.8]])
        assert not da.normalized and not dv.normalized

    def test_sqrt_scaling(self):
        atom = np.array([0.5, 0.0, 0.0, 0.0, 1.0])
        atom = atom / np.linalg.norm(atom)
        jd = JointDictionary(Dictionary(atom[:, None]), (4, 1))
        da, dv = split_joint(jd)
        np.testing.assert_allclose(da.atoms[:, 0], atom[:4] * 2.0)
        np.testing.assert_allclose(dv.atoms[:, 0], atom[4:])

    def test_round_trip(self):
        rng = np.random.default_rng(5)
        jd = random_joint(rng, 6, 4, 9)
        da, dv = split_joint(jd)
        refused = np.vstack(
            [da.atoms / np.sqrt(6.0), dv.atoms / np.sqrt(4.0)]
        )
        np.testing.assert_allclose(refused, jd.inner.atoms, atol=1e-12)

    def test_rejects_bad_modality_dims(self):
        # a wrong sum, or not a pair at all
        for dims in ((1, 1), 3, None, (1, 1, 1)):
            with pytest.raises(InputError):
                JointDictionary(Dictionary(np.eye(3)), dims)


class TestEncodeCrossModal:
    def test_zero_input(self):
        rng = np.random.default_rng(6)
        da, _ = split_joint(random_joint(rng, 4, 3, 5))
        y = encode_cross_modal(np.zeros(4), da, 0.3)
        assert not y.coeffs.any()

    def test_scalar_least_squares(self):
        jd = JointDictionary(Dictionary(np.array([[2.0], [1.0]]) / np.sqrt(5.0)), (1, 1))
        da, _ = split_joint(jd)
        # split audio atom is sqrt(1) * 2/sqrt(5); solve 4 = c * atom.
        y = encode_cross_modal(np.array([4.0]), da, 0.0)
        assert y.coeffs[0] == pytest.approx(4.0 / da.atoms[0, 0], abs=1e-9)

    def test_kkt_against_split_dictionary(self):
        rng = np.random.default_rng(7)
        jd = random_joint(rng, 5, 8, 12)
        da, dv = split_joint(jd)
        for d_split, dim in ((da, 5), (dv, 8)):
            x = rng.standard_normal(dim)
            y = encode_cross_modal(x, d_split, 0.2)
            assert kkt_violation(x, d_split, y.coeffs, 0.2) <= 1e-8

    def test_is_a_one_row_batch_call(self):
        # On split-style atoms, with and without twin atoms 1e-7 apart, and
        # on budgets that let the path end or send the row to descent, the
        # code and flag are row 0 of a one-row lasso_encode_batch call.
        rng = np.random.default_rng(10)
        flags = set()
        for twins in (False, True):
            joint = np.array(unit_column_dictionary(rng, 9, 12).atoms)
            if twins:
                twin = joint[:, 0] + 1e-7 * rng.standard_normal(9)
                joint[:, -1] = twin / np.linalg.norm(twin)
            for d in split_joint(JointDictionary(Dictionary(joint), (4, 5))):
                for lam, tol, max_iter in ((0.2, 1e-8, 1000), (0.05, 1e-12, 2)):
                    x = 2.0 * rng.standard_normal(d.input_dim)
                    y = encode_cross_modal(x, d, lam, tol, max_iter)
                    codes, ok = lasso_encode_batch(
                        x[None, :], d, SolverConfig(lam, tol, max_iter))
                    assert y.coeffs.tobytes() == codes[0].tobytes()
                    assert y.converged == ok[0]
                    flags.add(y.converged)
        assert flags == {True, False}

    def test_nonfinite_or_negative_lambda_rejected(self):
        da, _ = split_joint(random_joint(np.random.default_rng(6), 4, 3, 5))
        for lam in (float("nan"), float("inf"), -0.1):
            with pytest.raises(InputError):
                encode_cross_modal(np.ones(4), da, lam)


class TestLambdaJointOf:
    def test_unit_dims(self):
        assert lambda_joint_of(1.0, ModalityPair(1, 1)) == pytest.approx(2.0)

    def test_published_dims(self):
        # 48-dim audio, 128-dim video: lam' = 1/48 + 1/128 = 11/384.
        got = lambda_joint_of(1.0, ModalityPair(48, 128))
        assert got == pytest.approx(11.0 / 384.0, abs=1e-15)
        assert got == pytest.approx(0.0286458, abs=1e-7)

    def test_zero(self):
        assert lambda_joint_of(0.0, ModalityPair(3, 7)) == 0.0

    def test_nonfinite_or_negative_rejected(self):
        for lam in (float("nan"), float("inf"), -0.1):
            with pytest.raises(InputError, match="lambda2"):
                lambda_joint_of(lam, ModalityPair(3, 7))


class TestUnionFeatures:
    def test_published_length(self):
        u = union_features(np.zeros(512), np.zeros(512))
        assert u.shape == (1024,)

    def test_order_audio_first(self):
        np.testing.assert_array_equal(
            union_features([1.0], [2.0, 3.0]), [1.0, 2.0, 3.0]
        )

    def test_zero_inputs(self):
        u = union_features(np.zeros(3), np.zeros(4))
        assert u.shape == (7,)
        assert not u.any()


class TestObjectiveDecomposition:
    def test_identity_on_random_instances(self):
        # || x_av - D_av y ||^2 + lam' ||y||_1
        #   = (1/Na)(||x_a - D_a y||^2 + lam'' ||y||_1)
        #   + (1/Nv)(||x_v - D_v y||^2 + lam'' ||y||_1)
        # whenever lam' = (1/Na + 1/Nv) lam''.
        rng = np.random.default_rng(8)
        for trial in range(50):
            na = int(rng.integers(1, 12))
            nv = int(rng.integers(1, 12))
            k = int(rng.integers(1, 10))
            jd = random_joint(rng, na, nv, k)
            da, dv = split_joint(jd)
            xa = rng.standard_normal(na) * 2.0
            xv = rng.standard_normal(nv) * 2.0
            y = rng.standard_normal(k) * (rng.random(k) < 0.6)
            lam2 = float(rng.uniform(0.0, 2.0))
            lam1 = lambda_joint_of(lam2, ModalityPair(na, nv))
            lhs = lasso_objective(fuse_one(xa, xv), jd.inner, y, lam1)
            rhs = (
                lasso_objective(xa, da, y, lam2) / na
                + lasso_objective(xv, dv, y, lam2) / nv
            )
            assert lhs == pytest.approx(rhs, abs=1e-10)

    def test_identity_at_published_dims(self):
        rng = np.random.default_rng(9)
        jd = random_joint(rng, 48, 128, 16)
        da, dv = split_joint(jd)
        xa = rng.standard_normal(48)
        xv = rng.standard_normal(128)
        y = rng.standard_normal(16) * (rng.random(16) < 0.5)
        lam2 = 0.7
        lam1 = lambda_joint_of(lam2, ModalityPair(48, 128))
        lhs = lasso_objective(fuse_one(xa, xv), jd.inner, y, lam1)
        rhs = (
            lasso_objective(xa, da, y, lam2) / 48.0
            + lasso_objective(xv, dv, y, lam2) / 128.0
        )
        assert lhs == pytest.approx(rhs, abs=1e-10)
