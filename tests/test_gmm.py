"""GMM EM fitting, posterior computation, and supervector pooling."""

import numpy as np
import pytest

from mmsparse.errors import InputError
from mmsparse.features import PooledFeature
from mmsparse.gmm import (
    GaussianMixture,
    _log_densities,
    fit_gmm_em,
    gmm_supervector,
)


def posteriors(g, x):
    """Untruncated posterior of one vector: a one-input supervector."""
    return gmm_supervector(g, [x], target_sparsity=1.0).values


def two_cluster_data(rng, n_per=150, sep=10.0, dim=3):
    a = rng.standard_normal((n_per, dim)) + sep
    b = rng.standard_normal((n_per, dim)) - sep
    return np.vstack([a, b])


class TestFitGmmEm:
    def test_single_component_closed_form(self):
        rng = np.random.default_rng(0)
        X = rng.standard_normal((80, 4)) * 2.0 + 1.0
        g, _ = fit_gmm_em(X, m=1, seed=0)
        np.testing.assert_allclose(g.weights, [1.0])
        np.testing.assert_allclose(g.means[0], X.mean(axis=0), atol=1e-8)
        np.testing.assert_allclose(
            g.variances[0],
            np.maximum(np.var(X, axis=0), g.variance_floor),
            atol=1e-8,
        )

    def test_two_separated_clusters(self):
        for seed in (0, 1, 2):
            rng = np.random.default_rng(300 + seed)
            X = two_cluster_data(rng)
            g, _ = fit_gmm_em(X, m=2, seed=seed)
            centers = sorted(float(m[0]) for m in g.means)
            assert abs(centers[0] - (-10.0)) < 0.1 * np.sqrt(3)
            assert abs(centers[1] - 10.0) < 0.1 * np.sqrt(3)
            np.testing.assert_allclose(np.sort(g.weights), [0.5, 0.5], atol=0.05)

    def test_log_likelihood_nondecreasing(self):
        for run in range(8):
            rng = np.random.default_rng(400 + run)
            X = rng.standard_normal((60, 3)) @ rng.standard_normal((3, 3))
            _, stats = fit_gmm_em(X, m=4, seed=run, max_iter=60)
            lls = np.asarray(stats.log_likelihood_per_iter)
            assert np.all(np.diff(lls) >= -1e-8), lls

    def test_variance_floor_respected(self):
        rng = np.random.default_rng(1)
        X = np.repeat(rng.standard_normal((4, 2)), 10, axis=0)  # clumpy data
        g, _ = fit_gmm_em(X, m=3, seed=0)
        assert np.all(g.variances >= g.variance_floor * (1 - 1e-12))

    def test_deterministic(self):
        rng = np.random.default_rng(2)
        X = rng.standard_normal((50, 3))
        g1, s1 = fit_gmm_em(X, m=3, seed=11)
        g2, s2 = fit_gmm_em(X, m=3, seed=11)
        assert g1.means.tobytes() == g2.means.tobytes()
        assert s1.log_likelihood_per_iter == s2.log_likelihood_per_iter

    def test_constant_columns_keep_log_likelihood_from_falling(self):
        # identical 4-D rows, and a constant 1-D set at scale 1e3: every
        # variance sits at the floor, where uncentered rows leave
        # rounding of order x^2 / floor in the log-likelihood
        for X, m in ((np.tile([1.0, 2.0, 3.0, 4.0], (5, 1)), 5), (np.full((20, 1), 1e3), 3)):
            for seed in range(3):
                _, stats = fit_gmm_em(X, m=m, seed=seed)
                assert stats.reseeds == 0
                lls = np.asarray(stats.log_likelihood_per_iter)
                assert np.all(np.diff(lls) >= 0.0), lls

    def test_too_few_rows(self):
        with pytest.raises(InputError):
            fit_gmm_em(np.zeros((2, 3)), m=5)

    def test_log_densities_match_broadcast_form(self):
        # the expanded Mahalanobis sum against the direct rows x components
        # x dim evaluation, with some variances at a small floor
        rng = np.random.default_rng(6)
        X = rng.standard_normal((50, 6)) * 3.0
        means = X[rng.choice(50, size=8, replace=False)] + 0.01 * rng.standard_normal((8, 6))
        variances = np.maximum(rng.random((8, 6)) * 2.0 - 0.5, 1e-4)
        weights = np.full(8, 1.0 / 8)
        diff = X[:, None, :] - means[None, :, :]
        maha = np.sum(diff * diff / variances[None, :, :], axis=2)
        ref = np.log(weights) - 0.5 * (
            6 * np.log(2.0 * np.pi) + np.sum(np.log(variances), axis=1) + maha
        )
        got = _log_densities(weights, means, variances, X)
        np.testing.assert_allclose(got, ref, rtol=1e-10)


class TestPosteriors:
    def test_single_component_is_one(self):
        g = GaussianMixture(
            weights=np.array([1.0]),
            means=np.zeros((1, 2)),
            variances=np.ones((1, 2)),
            variance_floor=1e-6,
        )
        np.testing.assert_allclose(posteriors(g, np.array([0.3, -0.2])), [1.0])

    def test_peaked_at_component_mean(self):
        g = GaussianMixture(
            weights=np.array([0.5, 0.5]),
            means=np.array([[8.0, 8.0], [-8.0, -8.0]]),
            variances=np.ones((2, 2)),
            variance_floor=1e-6,
        )
        p = posteriors(g, np.array([8.0, 8.0]))
        assert p[0] > 0.999

    def test_sums_to_one(self):
        rng = np.random.default_rng(3)
        g, _ = fit_gmm_em(rng.standard_normal((40, 3)), m=5, seed=0)
        for _ in range(20):
            p = posteriors(g, rng.standard_normal(3))
            assert np.all(p >= 0)
            assert abs(p.sum() - 1.0) <= 1e-10

    def test_shift_equivalence(self):
        # translating the data and every mean by the same vector leaves the
        # per-component log densities, hence the posteriors, unchanged
        rng = np.random.default_rng(4)
        g, _ = fit_gmm_em(rng.standard_normal((40, 3)), m=3, seed=1)
        shift = np.array([100.0, -50.0, 25.0])
        g2 = GaussianMixture(
            weights=g.weights,
            means=g.means + shift,
            variances=g.variances,
            variance_floor=g.variance_floor,
        )
        for _ in range(10):
            x = rng.standard_normal(3)
            np.testing.assert_allclose(
                posteriors(g, x), posteriors(g2, x + shift), atol=1e-12
            )

    def test_dimension_mismatch(self):
        g = GaussianMixture(
            weights=np.array([1.0]),
            means=np.zeros((1, 2)),
            variances=np.ones((1, 2)),
            variance_floor=1e-6,
        )
        with pytest.raises(InputError):
            posteriors(g, np.zeros(3))


class TestGmmSupervector:
    def make_mixture(self):
        return GaussianMixture(
            weights=np.array([0.5, 0.5]),
            means=np.array([[6.0], [-6.0]]),
            variances=np.ones((2, 1)),
            variance_floor=1e-6,
        )

    def test_single_input_is_its_posterior(self):
        g = self.make_mixture()
        x = np.array([1.0])
        pf = gmm_supervector(g, [x], clip_id="c0", target_sparsity=1.0)
        # equal weights and unit variances: posterior is a softmax of -(x - mu)^2 / 2
        logits = -0.5 * (x[0] - g.means[:, 0]) ** 2
        expected = np.exp(logits - logits.max())
        np.testing.assert_allclose(pf.values, expected / expected.sum(), atol=1e-15)

    def test_bounds(self):
        rng = np.random.default_rng(5)
        g, _ = fit_gmm_em(rng.standard_normal((30, 2)), m=4, seed=0)
        vectors = [rng.standard_normal(2) for _ in range(6)]
        pf = gmm_supervector(g, vectors, target_sparsity=1.0)
        stacked = np.array([posteriors(g, v) for v in vectors])
        assert np.all(pf.values <= 1.0 + 1e-12)
        np.testing.assert_allclose(pf.values, stacked.max(axis=0), atol=1e-15)

    def test_two_peaks_both_present(self):
        g = self.make_mixture()
        pf = gmm_supervector(g, [np.array([6.0]), np.array([-6.0])])
        assert pf.values[0] > 0.999
        assert pf.values[1] > 0.999

    def test_sparsity_truncation(self):
        g, _ = fit_gmm_em(np.random.default_rng(6).standard_normal((60, 2)), m=10, seed=0)
        x = np.random.default_rng(7).standard_normal(2)
        pf = gmm_supervector(g, [x], target_sparsity=0.1)
        # ceil(0.1 * 10) = 1 surviving component, renormalized to 1
        assert np.count_nonzero(pf.values) == 1
        assert pf.values.max() == pytest.approx(1.0)

    def test_empty_rejected(self):
        with pytest.raises(InputError):
            gmm_supervector(self.make_mixture(), [])

    def test_gmm_tag(self):
        assert PooledFeature(np.zeros(2), clip_id="c", modality_tag="gmm").modality_tag == "gmm"
        pf = gmm_supervector(self.make_mixture(), [np.array([1.0])])
        assert pf.modality_tag == "gmm"
