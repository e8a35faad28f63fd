"""Property tests of tf-AGC and MFCC against their per-sample and
per-frame oracles.

Kept apart from test_media.py so that a checkout without hypothesis still
collects the media tests there."""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from mmsparse.media import AudioClip, MfccConfig

from helpers import assert_matches_mfcc_reference, assert_matches_tf_agc_reference, examples

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


@settings(max_examples=examples(40), deadline=None)
@given(
    data=st.data(),
    seed=st.integers(0, 2**32 - 1),
    window_len=st.integers(2, 2048),
    mel_filters=st.integers(1, 64),
    n_frames=st.integers(1, 1200),
    log_amplitude=st.floats(-8.0, 3.0),
    silent_tail=st.floats(0.0, 1.0),
)
def test_mfcc_matches_per_frame_reference(
    data, seed, window_len, mel_filters, n_frames, log_amplitude, silent_tail
):
    # up to 1200 frames, so that some clips span several blocks of frames
    hop = data.draw(st.integers(1, window_len), label="hop")
    n_coeffs = data.draw(st.integers(1, mel_filters), label="n_coeffs")
    length = window_len + (n_frames - 1) * hop + data.draw(st.integers(0, hop - 1), label="extra")
    x = np.random.default_rng(seed).standard_normal(length) * 10.0**log_amplitude
    x[int((1.0 - silent_tail) * length) :] = 0.0
    cfg = MfccConfig(window_len=window_len, hop=hop, mel_filters=mel_filters, n_coeffs=n_coeffs)
    assert_matches_mfcc_reference(AudioClip(x, FS), cfg)
