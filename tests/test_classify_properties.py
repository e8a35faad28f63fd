"""Property test of the SVM trainer against the alpha-form SMO it restates.

Kept apart from test_classify.py so that a checkout without hypothesis still
collects the classifier tests there."""

import numpy as np
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from mmsparse.classify import LinearSvm

from helpers import examples, svm_objective, svm_reference, train_svm


@settings(max_examples=examples(60), deadline=None)
@given(
    seed=st.integers(0, 2**32 - 1),
    n=st.integers(2, 60),
    d=st.integers(1, 40),
    log_c=st.floats(-2.0, 2.0),
    shift=st.floats(0.0, 2.0),
)
def test_train_svm_matches_alpha_form_reference(seed, n, d, log_c, shift):
    """Wherever the alpha-form SMO converges, training converges too, to
    what the hinge problem fixes: the weights within 1e-6 of max(1,
    |reference|), since w is unique; the bias as closely where the
    reference has a free support vector, since it is then unique too; and
    elsewhere, where every bias in an interval is optimal, a hinge
    objective no higher than the reference's up to rounding."""
    rng = np.random.default_rng(seed)
    y = np.where(rng.random(n) < 0.5, 1.0, -1.0)
    y[:2] = (1.0, -1.0)
    X = rng.standard_normal((n, d)) + shift * y[:, None]
    c = 10.0**log_c
    w_ref, b_ref, converged, alpha = svm_reference(X, y, c)
    assume(converged)
    m = train_svm(X, y, c)
    assert m.converged
    assert np.all(np.abs(m.weights - w_ref) <= 1e-6 * np.maximum(1.0, np.abs(w_ref)))
    if np.any((alpha > 1e-12 * c) & (alpha < (1.0 - 1e-12) * c)):
        assert abs(m.bias - b_ref) <= 1e-6 * max(1.0, abs(b_ref))
    else:
        j_ref = svm_objective(LinearSvm(w_ref, b_ref, c), X, y)
        assert svm_objective(m, X, y) <= j_ref + 1e-9 * abs(j_ref)
