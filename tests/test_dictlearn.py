"""Dictionary learning: initialization, updates, dead-atom recycling, and
the alternating loop's monotonicity and recovery behavior."""

import numpy as np
import pytest

from mmsparse.dictlearn import (
    LearnConfig,
    coding_objective,
    dictionary_update_step,
    init_dictionary,
    learn_dictionary,
    replace_dead_atoms,
)
from mmsparse.errors import InputError
from mmsparse.solvers import Dictionary

from helpers import unit_column_dictionary


def planted_problem(rng, n=8, k=4, samples=200, min_sep=0.5):
    """Ground-truth dictionary with well-separated atoms plus 1-sparse
    positive codes; returns (true_atoms, examples)."""
    while True:
        atoms = rng.standard_normal((n, k))
        atoms /= np.linalg.norm(atoms, axis=0, keepdims=True)
        gram = np.abs(atoms.T @ atoms)
        np.fill_diagonal(gram, 0.0)
        if gram.max() < min_sep:
            break
    which = rng.integers(0, k, size=samples)
    coef = rng.uniform(1.0, 2.0, size=samples)
    X = (atoms[:, which] * coef).T
    return atoms, X


class TestLearnConfig:
    @pytest.mark.parametrize(
        "field, value",
        [
            ("atom_count", 2.5),
            ("atom_count", True),
            ("atom_count", 0),
            ("epochs", 2.5),
            ("epochs", False),
            ("epochs", 0),
            ("lam", float("nan")),
            ("lam", float("inf")),
            ("lam", -0.1),
            ("lam", True),
            ("objective_tol", float("inf")),
            ("objective_tol", float("nan")),
            ("objective_tol", 0.0),
            ("objective_tol", True),
        ],
    )
    def test_bad_setting_rejected(self, field, value):
        settings = {"atom_count": 2, "lam": 0.1, field: value}
        with pytest.raises(InputError, match=field):
            LearnConfig(**settings)

    def test_numpy_integers_accepted(self):
        cfg = LearnConfig(atom_count=np.int64(3), lam=0.0, epochs=np.int32(1))
        assert (cfg.atom_count, cfg.epochs) == (3, 1)


class TestInitDictionary:
    def test_all_rows_used_when_m_equals_k(self):
        X = np.eye(3)[[2, 0, 1]]
        d = init_dictionary(X, 3, seed=42)
        got = sorted(map(tuple, d.atoms.T))
        want = sorted(map(tuple, X))
        assert got == want

    def test_single_example(self):
        d = init_dictionary(np.array([[1.0, 0.0]]), 1, seed=0)
        np.testing.assert_allclose(d.atoms[:, 0], [1.0, 0.0])

    def test_deterministic(self):
        rng = np.random.default_rng(1)
        X = rng.standard_normal((20, 6))
        a = init_dictionary(X, 4, seed=9)
        b = init_dictionary(X, 4, seed=9)
        assert a.atoms.tobytes() == b.atoms.tobytes()

    def test_oversampling_with_replacement(self):
        rng = np.random.default_rng(2)
        X = rng.standard_normal((3, 4))
        d = init_dictionary(X, 10, seed=5)
        assert d.atom_count == 10

    def test_zero_rows_never_selected(self):
        X = np.array([[0.0, 0.0], [3.0, 4.0]])
        d = init_dictionary(X, 2, seed=1)
        np.testing.assert_allclose(
            d.atoms, np.array([[0.6, 0.6], [0.8, 0.8]]), atol=1e-12
        )

    def test_empty_or_all_zero_rejected(self):
        with pytest.raises(InputError):
            init_dictionary(np.zeros((0, 3)), 2, seed=0)
        with pytest.raises(InputError):
            init_dictionary(np.zeros((4, 3)), 2, seed=0)


class TestDictionaryUpdateStep:
    def test_zero_codes_leave_dictionary_unchanged(self):
        rng = np.random.default_rng(3)
        d = unit_column_dictionary(rng, 6, 4)
        X = rng.standard_normal((5, 6))
        d2 = dictionary_update_step(X, np.zeros((5, 4)), d)
        np.testing.assert_array_equal(d2.atoms, d.atoms)

    def test_rank_one_oracle(self):
        # Single example, single atom, code at its least-squares optimum:
        # the updated atom is x / ||x||.
        rng = np.random.default_rng(4)
        x = rng.standard_normal(6)
        d = unit_column_dictionary(rng, 6, 1)
        code = float(d.atoms[:, 0] @ x)
        d2 = dictionary_update_step(x[None, :], np.array([[code]]), d)
        np.testing.assert_allclose(
            d2.atoms[:, 0], np.sign(code) * x / np.linalg.norm(x), atol=1e-12
        )

    def test_reconstruction_error_never_increases(self):
        rng = np.random.default_rng(5)
        for _ in range(20):
            d = unit_column_dictionary(rng, 5, 8)
            X = rng.standard_normal((12, 5))
            Y = rng.standard_normal((12, 8)) * (rng.random((12, 8)) < 0.3)
            before = X - Y @ d.atoms.T
            d2 = dictionary_update_step(X, Y, d)
            after = X - Y @ d2.atoms.T
            assert np.sum(after * after) <= np.sum(before * before) + 1e-9

    def test_repeated_updates_at_large_scale_pass_their_check(self):
        # Near its fixed point a pass moves an error of ~5e9 by rounding
        # alone (~1e-6); the check must not take that for a rise.
        for seed in range(20):
            rng = np.random.default_rng(seed)
            d = unit_column_dictionary(rng, 5, 1)
            X = rng.standard_normal((12, 5)) * 1e4
            Y = rng.standard_normal((12, 1)) * 1e4
            for _ in range(5):
                d = dictionary_update_step(X, Y, d)

    def test_columns_stay_unit_norm(self):
        rng = np.random.default_rng(6)
        d = unit_column_dictionary(rng, 5, 7)
        X = rng.standard_normal((9, 5))
        Y = rng.standard_normal((9, 7))
        d2 = dictionary_update_step(X, Y, d)
        np.testing.assert_allclose(np.linalg.norm(d2.atoms, axis=0), 1.0, atol=1e-9)


class TestReplaceDeadAtoms:
    def test_no_dead_atoms_noop(self):
        rng = np.random.default_rng(7)
        d = unit_column_dictionary(rng, 4, 3)
        X = rng.standard_normal((6, 4))
        codes = rng.standard_normal((6, 3))
        d2, n = replace_dead_atoms(d, np.array([2, 1, 4]), X, seed=0, codes=codes)
        assert n == 0
        np.testing.assert_array_equal(d2.atoms, d.atoms)

    def test_dead_atom_takes_worst_example(self):
        # One atom aligned with e0 and a dead one; the example far from the
        # span of useful reconstructions should replace the dead atom.
        atoms = np.array([[1.0, 0.0], [0.0, 1.0], [0.0, 0.0]])
        d = Dictionary(atoms)
        X = np.array([[2.0, 0.0, 0.0], [0.0, 0.0, 5.0]])
        codes = np.array([[2.0, 0.0], [0.0, 0.0]])
        d2, n = replace_dead_atoms(d, np.array([1, 0]), X, seed=0, codes=codes)
        assert n == 1
        np.testing.assert_allclose(d2.atoms[:, 1], [0.0, 0.0, 1.0], atol=1e-12)

    def test_all_dead_get_distinct_examples(self):
        rng = np.random.default_rng(8)
        X = rng.standard_normal((6, 4))
        d = unit_column_dictionary(rng, 4, 3)
        codes = np.zeros((6, 3))  # no atom is used
        d2, n = replace_dead_atoms(d, np.zeros(3, dtype=int), X, seed=0, codes=codes)
        assert n == 3
        rows = {tuple(np.round(X[i] / np.linalg.norm(X[i]), 12)) for i in range(6)}
        cols = [tuple(np.round(d2.atoms[:, j], 12)) for j in range(3)]
        assert len(set(cols)) == 3
        assert all(c in rows for c in cols)


class TestLearnDictionary:
    def test_rank_one_convergence(self):
        rng = np.random.default_rng(9)
        x = rng.standard_normal(6)
        cfg = LearnConfig(atom_count=1, lam=0.0, epochs=5, seed=0)
        d, stats = learn_dictionary(x[None, :], cfg)
        atom = d.atoms[:, 0]
        direction = x / np.linalg.norm(x)
        assert min(
            np.linalg.norm(atom - direction), np.linalg.norm(atom + direction)
        ) <= 1e-8
        assert stats.objective_per_epoch[-1] <= 1e-8

    def test_planted_dictionary_recovery(self):
        for seed in (0, 1, 2):
            rng = np.random.default_rng(100 + seed)
            true_atoms, X = planted_problem(rng)
            cfg = LearnConfig(atom_count=4, lam=0.01, epochs=300, seed=seed)
            d, _ = learn_dictionary(X, cfg)
            sims = np.abs(true_atoms.T @ d.atoms)
            best = sims.max(axis=1)
            assert np.all(best >= 0.99), f"seed {seed}: best cosines {best}"

    def test_huge_lambda_gives_zero_codes(self):
        rng = np.random.default_rng(10)
        X = rng.standard_normal((10, 5))
        X /= np.linalg.norm(X, axis=1, keepdims=True)
        cfg = LearnConfig(atom_count=3, lam=1e6, epochs=3, seed=0)
        d, stats = learn_dictionary(X, cfg)
        assert stats.objective_per_epoch[-1] == pytest.approx(float(np.sum(X * X)))

    def test_objective_nonincreasing(self):
        for run in range(5):
            rng = np.random.default_rng(200 + run)
            X = rng.standard_normal((30, 6))
            cfg = LearnConfig(atom_count=10, lam=0.1, epochs=15, seed=run)
            _, stats = learn_dictionary(X, cfg)
            diffs = np.diff(np.asarray(stats.objective_per_epoch))
            assert np.all(diffs <= 1e-9)

    def test_unit_norm_atoms(self):
        rng = np.random.default_rng(11)
        X = rng.standard_normal((25, 5))
        d, _ = learn_dictionary(X, LearnConfig(atom_count=8, lam=0.2, epochs=10, seed=3))
        np.testing.assert_allclose(np.linalg.norm(d.atoms, axis=0), 1.0, atol=1e-9)

    def test_deterministic(self):
        rng = np.random.default_rng(12)
        X = rng.standard_normal((20, 4))
        cfg = LearnConfig(atom_count=6, lam=0.15, epochs=8, seed=77)
        d1, s1 = learn_dictionary(X, cfg)
        d2, s2 = learn_dictionary(X, cfg)
        assert d1.atoms.tobytes() == d2.atoms.tobytes()
        assert s1.objective_per_epoch == s2.objective_per_epoch

    def test_overcomplete_allowed(self):
        rng = np.random.default_rng(13)
        X = rng.standard_normal((20, 4))
        d, _ = learn_dictionary(X, LearnConfig(atom_count=12, lam=0.1, epochs=5, seed=0))
        assert d.atom_count == 12

    def test_nonfinite_rejected(self):
        X = np.ones((4, 3))
        X[1, 2] = np.inf
        with pytest.raises(InputError):
            learn_dictionary(X, LearnConfig(atom_count=2, lam=0.1))


class TestCodingObjective:
    def test_matches_manual_sum(self):
        rng = np.random.default_rng(14)
        d = unit_column_dictionary(rng, 4, 6)
        X = rng.standard_normal((3, 4))
        Y = rng.standard_normal((3, 6))
        manual = 0.0
        for i in range(3):
            r = X[i] - d.atoms @ Y[i]
            manual += r @ r + 0.3 * np.sum(np.abs(Y[i]))
        assert coding_objective(X, d, Y, 0.3) == pytest.approx(manual, abs=1e-12)
