"""SVM training, scoring, event prediction, and cross-validation."""

import numpy as np
import pytest

from mmsparse.classify import (
    EventModel,
    LinearSvm,
    _smo_batch,
    cross_validate,
    decision_score,
    predict_event,
    stratified_folds,
    train_event_models,
    train_svm,
)
from mmsparse.errors import InputError

from helpers import svm_objective, svm_reference


def blobs(rng, n_per=25, sep=2.5, dim=2):
    X = np.vstack(
        [
            rng.standard_normal((n_per, dim)) + sep,
            rng.standard_normal((n_per, dim)) - sep,
        ]
    )
    y = np.array([1.0] * n_per + [-1.0] * n_per)
    return X, y


class TestTrainSvm:
    def test_symmetric_two_point_case(self):
        X = np.array([[1.0], [-1.0]])
        y = np.array([1.0, -1.0])
        m = train_svm(X, y, c=100.0)
        # scan oracle over the 1-D objective: for large c the minimum is
        # w = 1, b = 0 (margins exactly 1, zero hinge).
        best = None
        for w in np.linspace(0.0, 3.0, 301):
            for b in np.linspace(-1.5, 1.5, 301):
                margins = y * (X[:, 0] * w + b)
                j = 0.5 * w * w + 100.0 * np.sum(np.maximum(0.0, 1.0 - margins))
                if best is None or j < best[0]:
                    best = (j, w, b)
        assert svm_objective(m, X, y) <= best[0] + 1e-9
        assert abs(m.bias) <= 1e-9
        assert m.converged
        assert np.sign(decision_score(m, X[0])) == 1.0
        assert np.sign(decision_score(m, X[1])) == -1.0

    def test_separable_blobs_perfect_training_accuracy(self):
        rng = np.random.default_rng(0)
        X, y = blobs(rng)
        m = train_svm(X, y, c=10.0)
        preds = np.sign(X @ m.weights + m.bias)
        assert np.all(preds == y)

    def test_duplicated_data_with_halved_c_equivalent(self):
        # duplicating every example and halving c leaves the objective
        # unchanged, so the optimum is identical
        rng = np.random.default_rng(1)
        X, y = blobs(rng, n_per=20)
        Xd = np.vstack([X, X])
        yd = np.concatenate([y, y])
        for c in (0.1, 10.0):
            m1 = train_svm(X, y, c=c)
            m2 = train_svm(Xd, yd, c=c / 2.0)
            assert np.max(np.abs(m1.weights - m2.weights)) <= 1e-4
            assert abs(m1.bias - m2.bias) <= 1e-4

    def test_self_consistency_against_longer_run(self):
        rng = np.random.default_rng(2)
        X = rng.standard_normal((40, 3))
        y = np.where(rng.random(40) < 0.5, 1.0, -1.0)
        X += 0.8 * y[:, None]  # overlapping classes
        for c in (0.01, 1.0, 100.0):
            m = train_svm(X, y, c=c)
            m_ref = train_svm(X, y, c=c, max_steps=10 * max(200 * 40, 20000))
            j = svm_objective(m, X, y)
            j_ref = svm_objective(m_ref, X, y)
            assert abs(j - j_ref) <= 1e-4 * max(abs(j_ref), 1e-12)

    def test_dual_objective_trace_nonincreasing(self):
        # Replaying the SMO with a budget of 0, 1, 2, ... pair updates gives
        # the dual objective after every single step, until it converges.
        rng = np.random.default_rng(3)
        X = rng.standard_normal((12, 4))
        y = np.where(rng.random(12) < 0.5, 1.0, -1.0)
        X += 0.5 * y[:, None]
        gram = X @ X.T
        tol = 1e-9
        duals = []
        for steps in range(2000):
            betas, _, gaps = _smo_batch(gram, y[None, :], np.array([50.0]), tol, steps)
            beta, gap = betas[0], gaps[0]
            duals.append(0.5 * float(beta @ gram @ beta) - float(y @ beta))
            if gap < tol:
                break
        assert gap < tol
        assert len(duals) > 10
        assert np.all(np.diff(duals) <= 1e-9)

    def test_exhausted_step_budget_reported(self):
        rng = np.random.default_rng(5)
        X, y = blobs(rng, sep=0.5)
        assert not train_svm(X, y, c=100.0, max_steps=5).converged

    def test_near_duplicate_rows_converge(self):
        # Rows of 1-3 unit entries, half of them lowered by up to 1e-6:
        # max-violating-pair updates alternate between two pairs here and
        # stall (14 of these 60 fits ran out 20,000 steps before the exact
        # finish). Every fit now converges, and to a hinge objective no
        # higher than the alpha-form SMO's last iterate.
        for seed in range(60):
            rng = np.random.default_rng(seed)
            X = np.zeros((42, 16))
            for row in X:
                row[rng.choice(16, size=int(rng.integers(1, 4)), replace=False)] = 1.0
            low = rng.permutation(42)[:21]
            X[low] -= np.where(X[low] > 0, rng.uniform(0.0, 1e-6, size=(21, 16)), 0.0)
            y = -np.ones(42)
            y[::6] = 1.0
            m = train_svm(X, y, c=1.0)
            assert m.converged, seed
            w_ref, b_ref, _ = svm_reference(X, y, 1.0)
            j_ref = svm_objective(LinearSvm(w_ref, b_ref, 1.0), X, y)
            assert svm_objective(m, X, y) <= j_ref + 1e-12 * abs(j_ref), seed

    def test_deterministic(self):
        rng = np.random.default_rng(4)
        X, y = blobs(rng)
        m1 = train_svm(X, y, c=1.0, seed=7)
        m2 = train_svm(X, y, c=1.0, seed=99)
        assert m1.weights.tobytes() == m2.weights.tobytes()
        assert m1.bias == m2.bias

    def test_single_class_rejected(self):
        with pytest.raises(InputError):
            train_svm(np.ones((3, 2)), np.array([1.0, 1.0, 1.0]), c=1.0)

    def test_nonfinite_or_nonpositive_c_rejected(self):
        X = np.array([[1.0], [-1.0]])
        y = np.array([1.0, -1.0])
        for c in (float("nan"), float("inf"), 0.0, -1.0):
            with pytest.raises(InputError):
                train_svm(X, y, c=c)
        assert train_svm(X, y, c=5e-324).c == 5e-324

    def test_label_flip_flips_scores(self):
        rng = np.random.default_rng(5)
        X, y = blobs(rng)
        m_pos = train_svm(X, y, c=1.0)
        m_neg = train_svm(X, -y, c=1.0)
        for i in range(0, 50, 7):
            assert decision_score(m_pos, X[i]) == pytest.approx(
                -decision_score(m_neg, X[i]), abs=1e-6
            )


class TestDecisionScore:
    def test_zero_input_gives_bias(self):
        m = LinearSvm(weights=np.array([2.0, -1.0]), bias=0.75, c=1.0)
        assert decision_score(m, np.zeros(2)) == pytest.approx(0.75)

    def test_linear_in_input(self):
        m = LinearSvm(weights=np.array([1.5, -0.5]), bias=0.1, c=1.0)
        u = np.array([1.0, 2.0])
        v = np.array([-3.0, 0.5])
        lhs = decision_score(m, 2.0 * u + 3.0 * v)
        rhs = 2.0 * decision_score(m, u) + 3.0 * decision_score(m, v) - 4.0 * m.bias
        assert lhs == pytest.approx(rhs, abs=1e-12)

    def test_dimension_mismatch(self):
        m = LinearSvm(weights=np.zeros(2), bias=0.0, c=1.0)
        with pytest.raises(InputError):
            decision_score(m, np.zeros(3))


class TestPredictEvent:
    def make_model(self, w, b):
        return LinearSvm(weights=np.asarray(w, float), bias=b, c=1.0)

    def test_single_model_always_wins(self):
        em = EventModel(("only",), (self.make_model([0.0], -5.0),))
        assert predict_event(em, np.array([1.0])) == "only"

    def test_argmax(self):
        em = EventModel(
            ("a", "b"),
            (self.make_model([0.0], 0.5), self.make_model([0.0], -0.2)),
        )
        assert predict_event(em, np.array([0.0])) == "a"

    def test_tie_goes_to_lowest_id(self):
        em = EventModel(
            ("z", "a"),
            (self.make_model([0.0], 0.3), self.make_model([0.0], 0.3)),
        )
        assert predict_event(em, np.array([0.0])) == "a"

    def test_common_bias_shift_preserves_argmax(self):
        rng = np.random.default_rng(6)
        models = tuple(
            self.make_model(rng.standard_normal(3), float(rng.standard_normal()))
            for _ in range(4)
        )
        em = EventModel(("e0", "e1", "e2", "e3"), models)
        shifted = EventModel(
            em.event_ids,
            tuple(LinearSvm(m.weights, m.bias + 2.5, m.c) for m in em.models),
        )
        for _ in range(10):
            x = rng.standard_normal(3)
            scores_a = [decision_score(m, x) for m in em.models]
            scores_b = [decision_score(m, x) for m in shifted.models]
            np.testing.assert_allclose(
                np.asarray(scores_b) - np.asarray(scores_a), 2.5, atol=1e-12
            )
            assert predict_event(em, x) == predict_event(shifted, x)


class TestStratifiedFolds:
    def test_partition(self):
        labels = ["a"] * 10 + ["b"] * 15
        assignment, used, reduced = stratified_folds(labels, 5, seed=0)
        assert used == 5 and not reduced
        assert assignment.shape == (25,)
        assert set(assignment.tolist()) == set(range(5))

    def test_class_ratio_within_one(self):
        labels = ["a"] * 10 + ["b" ] * 15
        assignment, used, _ = stratified_folds(labels, 5, seed=1)
        for fold in range(used):
            in_fold = [labels[i] for i in np.flatnonzero(assignment == fold)]
            assert abs(in_fold.count("a") - 2) <= 1
            assert abs(in_fold.count("b") - 3) <= 1

    def test_fold_reduction_flagged(self):
        labels = ["a"] * 3 + ["b"] * 12
        assignment, used, reduced = stratified_folds(labels, 5, seed=0)
        assert used == 3 and reduced

    def test_deterministic(self):
        labels = ["a"] * 8 + ["b"] * 8
        a1, *_ = stratified_folds(labels, 4, seed=3)
        a2, *_ = stratified_folds(labels, 4, seed=3)
        assert np.array_equal(a1, a2)


class TestCrossValidate:
    def multiclass_data(self, rng, n_per=10):
        centers = np.array([[4.0, 0.0], [-4.0, 0.0], [0.0, 4.0]])
        X = np.vstack(
            [rng.standard_normal((n_per, 2)) * 0.5 + c for c in centers]
        )
        labels = ["e0"] * n_per + ["e1"] * n_per + ["e2"] * n_per
        return X, labels

    def test_single_value_grid(self):
        rng = np.random.default_rng(7)
        X, labels = self.multiclass_data(rng)
        res = cross_validate(X, labels, c_grid=[0.5], folds=5, seed=0)
        assert res.best_c == 0.5

    def test_separable_data_perfect_accuracy(self):
        rng = np.random.default_rng(8)
        X, labels = self.multiclass_data(rng)
        res = cross_validate(X, labels, c_grid=[1.0, 10.0, 100.0], folds=5, seed=0)
        assert res.mean_accuracy[10.0] == 1.0
        assert res.mean_accuracy[100.0] == 1.0

    def test_tie_prefers_smaller_c(self):
        rng = np.random.default_rng(9)
        X, labels = self.multiclass_data(rng)
        res = cross_validate(X, labels, c_grid=[100.0, 1.0, 10.0], folds=5, seed=0)
        accs = res.mean_accuracy
        winners = [c for c, a in accs.items() if a == max(accs.values())]
        assert res.best_c == min(winners)

    def test_empty_grid_rejected(self):
        with pytest.raises(InputError):
            cross_validate(np.ones((4, 2)), ["a", "a", "b", "b"], c_grid=[], folds=2)

    def test_single_label_rejected(self):
        # Folds of one label train SVMs with no negative example.
        with pytest.raises(InputError, match="two distinct labels"):
            cross_validate(np.arange(8.0)[:, None], ["a"] * 8, c_grid=[1.0], folds=2)

    def test_nonfinite_grid_value_rejected(self):
        X = np.array([[1.0], [2.0], [-1.0], [-2.0]])
        for bad in (float("nan"), float("inf"), 0.0):
            with pytest.raises(InputError):
                cross_validate(X, ["a", "a", "b", "b"], c_grid=[1.0, bad], folds=2)


class TestEventModelTraining:
    def test_event_ids_sorted_and_dims_consistent(self):
        rng = np.random.default_rng(10)
        X = np.vstack(
            [rng.standard_normal((6, 3)) + 3, rng.standard_normal((6, 3)) - 3]
        )
        labels = ["bike"] * 6 + ["dog"] * 6
        em = train_event_models(X, labels, c=1.0)
        assert em.event_ids == ("bike", "dog")
        preds = [predict_event(em, X[i]) for i in range(12)]
        assert preds == labels
