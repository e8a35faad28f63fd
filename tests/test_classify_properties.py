"""Property test of the SVM trainer against the alpha-form SMO it restates.

Kept apart from test_classify.py so that a checkout without hypothesis still
collects the classifier tests there."""

import numpy as np
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from mmsparse.classify import train_svm

from helpers import examples, svm_reference


@settings(max_examples=examples(60), deadline=None)
@given(
    seed=st.integers(0, 2**32 - 1),
    n=st.integers(2, 60),
    d=st.integers(1, 40),
    log_c=st.floats(-2.0, 2.0),
    shift=st.floats(0.0, 2.0),
)
def test_train_svm_matches_alpha_form_reference(seed, n, d, log_c, shift):
    """Wherever the alpha-form SMO converges, train_svm converges too, to
    the same weights and bias within 1e-6 of max(1, |reference|)."""
    rng = np.random.default_rng(seed)
    y = np.where(rng.random(n) < 0.5, 1.0, -1.0)
    y[:2] = (1.0, -1.0)
    X = rng.standard_normal((n, d)) + shift * y[:, None]
    c = 10.0**log_c
    w_ref, b_ref, converged = svm_reference(X, y, c)
    assume(converged)
    m = train_svm(X, y, c)
    assert m.converged
    assert np.all(np.abs(m.weights - w_ref) <= 1e-6 * np.maximum(1.0, np.abs(w_ref)))
    assert abs(m.bias - b_ref) <= 1e-6 * max(1.0, abs(b_ref))
