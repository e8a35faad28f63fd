"""Property test of tf-AGC against its per-sample oracle.

Kept apart from test_media.py so that a checkout without hypothesis still
collects the media tests there."""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from helpers import assert_matches_tf_agc_reference, examples

FS = 22050


@settings(max_examples=examples(40), deadline=None)
@given(
    seed=st.integers(0, 2**32 - 1),
    length=st.integers(1, 4000),
    log_amplitude=st.floats(-4.0, 2.0),
    zero_runs=st.lists(st.tuples(st.floats(0.0, 1.0), st.integers(1, 2000)), max_size=4),
    n_bands=st.integers(1, 10),
    log_attack=st.floats(np.log10(1.0 / FS), 0.0),
    log_release=st.floats(np.log10(1.0 / FS), 0.0),
)
def test_matches_per_sample_loop(
    seed, length, log_amplitude, zero_runs, n_bands, log_attack, log_release
):
    x = np.random.default_rng(seed).standard_normal(length) * 10.0**log_amplitude
    for where, run in zero_runs:
        start = int(where * length)
        x[start : start + run] = 0.0
    assert_matches_tf_agc_reference(
        x, FS, n_bands=n_bands, attack_s=10.0**log_attack, release_s=10.0**log_release
    )
