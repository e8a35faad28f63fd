"""Whitening and pooling behavior."""

import numpy as np
import pytest

from mmsparse.errors import InputError
from mmsparse.features import (
    PooledFeature,
    apply_whitening,
    fit_whitening,
    pool_clip,
)


def sample_cov(X):
    Xc = X - X.mean(axis=0)
    return Xc.T @ Xc / (X.shape[0] - 1)


class TestFitWhitening:
    def test_identity_covariance_fixed_point(self):
        rng = np.random.default_rng(0)
        # Rotations of iid normals: sample covariance approaches identity;
        # construct data with exact identity sample covariance instead.
        raw = rng.standard_normal((200, 4))
        raw -= raw.mean(axis=0)
        cov = sample_cov(raw)
        chol = np.linalg.cholesky(np.linalg.inv(cov))
        X = raw @ chol  # exact zero mean, exact identity sample covariance
        w = fit_whitening(X, d=4, eps=0.0)
        np.testing.assert_allclose(w.scales, 1.0, atol=1e-6)
        white = apply_whitening(w, X)
        np.testing.assert_allclose(sample_cov(white), np.eye(4), atol=1e-6)

    def test_line_in_2d_hand_eigen_oracle(self):
        # Points on the line through direction (3,4)/5: the 2x2 covariance is
        # lam * u u^T; its top eigenvector is u (hand computation).
        u = np.array([3.0, 4.0]) / 5.0
        t = np.array([-1.0, 0.5, 2.0])
        X = np.outer(t, u)
        w = fit_whitening(X, d=1, eps=1e-9)
        np.testing.assert_allclose(np.abs(w.basis[:, 0]), u, atol=1e-8)

    def test_whitened_covariance_is_identity(self):
        rng = np.random.default_rng(1)
        for trial in range(5):
            m, n, d = 60, 7, 5
            X = rng.standard_normal((m, n)) @ rng.standard_normal((n, n))
            w = fit_whitening(X, d=d, eps=1e-10)
            white = apply_whitening(w, X)
            cov = sample_cov(white)
            off = cov - np.diag(np.diag(cov))
            assert np.max(np.abs(off)) <= 1e-6
            assert np.all(np.abs(np.diag(cov) - 1.0) <= 1e-3)

    def test_deterministic_including_signs(self):
        rng = np.random.default_rng(2)
        X = rng.standard_normal((40, 6))
        w1 = fit_whitening(X, d=4)
        w2 = fit_whitening(X, d=4)
        assert w1.basis.tobytes() == w2.basis.tobytes()
        assert w1.scales.tobytes() == w2.scales.tobytes()
        cols = w1.basis.T
        for col in cols:
            assert col[np.argmax(np.abs(col))] > 0

    def test_dimension_bound(self):
        rng = np.random.default_rng(3)
        X = rng.standard_normal((5, 10))
        with pytest.raises(InputError):
            fit_whitening(X, d=5)  # d must be <= m - 1 = 4

    def test_zero_variance_data_allowed_with_eps(self):
        X = np.ones((6, 3))
        w = fit_whitening(X, d=2, eps=1e-5)
        assert np.all(np.isfinite(w.scales))
        np.testing.assert_allclose(apply_whitening(w, X[0]), 0.0, atol=1e-12)

    def test_zero_variance_without_eps_rejected(self):
        X = np.ones((6, 3))
        with pytest.raises(InputError):
            fit_whitening(X, d=2, eps=0.0)


class TestApplyWhitening:
    def test_mean_maps_to_zero(self):
        rng = np.random.default_rng(4)
        X = rng.standard_normal((30, 5))
        w = fit_whitening(X, d=3)
        np.testing.assert_allclose(apply_whitening(w, X.mean(axis=0)), 0.0, atol=1e-12)

    def test_linear_in_centered_input(self):
        rng = np.random.default_rng(5)
        X = rng.standard_normal((30, 5))
        w = fit_whitening(X, d=4)
        u, v = rng.standard_normal((2, 5))
        lhs = apply_whitening(w, w.mean + 2.0 * u + 3.0 * v)
        rhs = 2.0 * apply_whitening(w, w.mean + u) + 3.0 * apply_whitening(w, w.mean + v)
        np.testing.assert_allclose(lhs, rhs, atol=1e-12)

    def test_matrix_rows_match_vectors(self):
        rng = np.random.default_rng(6)
        X = rng.standard_normal((20, 4))
        w = fit_whitening(X, d=3)
        out = apply_whitening(w, X)
        for i in range(20):
            np.testing.assert_allclose(out[i], apply_whitening(w, X[i]), atol=1e-12)

    def test_dim_mismatch(self):
        rng = np.random.default_rng(7)
        w = fit_whitening(rng.standard_normal((10, 4)), d=2)
        with pytest.raises(InputError):
            apply_whitening(w, np.zeros(5))


class TestPoolClip:
    def test_single_code(self):
        c = np.array([0.5, -1.0])
        pf = pool_clip([[c]], clip_id="clip0", modality_tag="audio")
        np.testing.assert_array_equal(pf.values, c)
        assert pf.clip_id == "clip0"

    def test_two_stage_equals_flat(self):
        rng = np.random.default_rng(10)
        groups = [
            [rng.standard_normal(7) for _ in range(int(rng.integers(1, 4)))]
            for _ in range(5)
        ]
        pf = pool_clip(groups, clip_id="c", modality_tag="joint")
        flat = np.max(np.vstack([c for g in groups for c in g]), axis=0)
        np.testing.assert_array_equal(pf.values, flat)

    def test_empty_rejected(self):
        with pytest.raises(InputError):
            pool_clip([], clip_id="c", modality_tag="video")

    def test_empty_group_rejected(self):
        with pytest.raises(InputError):
            pool_clip([[np.ones(2)], []], clip_id="c", modality_tag="video")

    def test_bad_tag_rejected(self):
        with pytest.raises(InputError):
            PooledFeature(np.zeros(2), clip_id="c", modality_tag="banana")
