"""Keyframe detection and the audio feature pipeline."""

import tracemalloc

import numpy as np
import pytest
from scipy.fft import dct

from mmsparse.errors import InputError
from mmsparse.media import (
    _STRETCH_CHUNK,
    AudioClip,
    FrameHistogram,
    MfccConfig,
    _mfcc_kernels,
    _octave_band_signals,
    delta_coefficients,
    detect_keyframes,
    mel_filterbank,
    mfcc_features,
    sample_context_frames,
    tf_agc,
)

from helpers import (
    assert_matches_mfcc_reference,
    assert_matches_tf_agc_reference,
    detect_keyframes_reference,
    mel_filterbank_reference,
)

FS = 22050


def hist(counts, index=0, ts=0.0):
    return FrameHistogram(counts=np.asarray(counts, dtype=float), frame_index=index, timestamp_s=ts)


def colorful(bins, nonzero, base=10.0):
    counts = np.zeros(bins)
    counts[:nonzero] = base
    return counts


class TestDetectKeyframes:
    def test_constant_sequence_has_no_keyframes(self):
        frames = [hist(colorful(64, 30), i, i / 30.0) for i in range(8)]
        assert detect_keyframes(frames) == []

    def test_abrupt_change_detected_exactly(self):
        a = colorful(64, 30)
        b = np.zeros(64)
        b[30:60] = 7.0  # disjoint support, 30 distinct colors
        frames = [hist(a, i) for i in range(10)] + [hist(b, 10)]
        got = detect_keyframes(frames, alpha=1.0)
        # direct threshold computation: nine zero diffs and one large one
        na = a / a.sum()
        nb = b / b.sum()
        d = np.sum(np.abs(nb - na))
        diffs = np.array([0.0] * 9 + [d])
        assert d > diffs.mean() + diffs.std()
        assert got == [10]

    def test_low_color_candidate_discarded(self):
        a = colorful(64, 30)
        b = np.zeros(64)
        b[62:64] = 100.0  # only 2 distinct colors
        frames = [hist(a, i) for i in range(5)] + [hist(b, 5)]
        assert detect_keyframes(frames) == []

    def test_invariant_to_uniform_count_scaling(self):
        rng = np.random.default_rng(0)
        base = [rng.integers(0, 50, size=48).astype(float) for _ in range(12)]
        frames1 = [hist(c, i) for i, c in enumerate(base)]
        frames2 = [hist(c * 17.0, i) for i, c in enumerate(base)]
        assert detect_keyframes(frames1) == detect_keyframes(frames2)

    def test_too_few_frames(self):
        with pytest.raises(InputError):
            detect_keyframes([hist(colorful(8, 4))])

    def test_frames_that_are_not_histograms_rejected(self):
        with pytest.raises(InputError, match="FrameHistogram"):
            detect_keyframes([1, 2, 3])

    def test_histograms_of_different_lengths_rejected(self):
        with pytest.raises(InputError):
            detect_keyframes([hist(colorful(8, 4)), hist(colorful(1, 1))])

    @pytest.mark.parametrize("seed", range(6))
    @pytest.mark.parametrize("alpha, min_colors", [(1.0, 26), (0.0, 0), (-0.5, 10), (2.0, 40)])
    def test_matches_per_pair_reference(self, seed, alpha, min_colors):
        rng = np.random.default_rng(seed)
        frames = []
        for i in range(int(rng.integers(2, 80))):
            counts = rng.random(48) * rng.integers(1, 1000) * (rng.random(48) < rng.random())
            frames.append(hist(counts, i, i / 25.0))
        got = detect_keyframes(frames, alpha=alpha, min_colors=min_colors)
        assert got == detect_keyframes_reference(frames, alpha=alpha, min_colors=min_colors)


class TestSampleContextFrames:
    def test_centered_window(self):
        ts = sample_context_frames(10.0, fps=10.0, count=10, span_s=5.0)
        assert ts[0] == pytest.approx(7.5)
        assert ts[-1] == pytest.approx(12.5)
        assert len(ts) == 10

    def test_clamped_at_zero(self):
        ts = sample_context_frames(1.0, fps=10.0, count=10, span_s=5.0)
        assert ts[0] == pytest.approx(0.0)
        assert ts[-1] == pytest.approx(5.0)

    def test_constant_spacing_within_frame_period(self):
        fps = 30.0
        ts = np.asarray(sample_context_frames(20.0, fps=fps, count=10, span_s=5.0))
        gaps = np.diff(ts)
        assert np.max(gaps) - np.min(gaps) <= 1.0 / fps + 1e-12

    def test_snapped_to_frame_grid(self):
        fps = 24.0
        ts = sample_context_frames(3.3, fps=fps, count=7, span_s=2.0)
        for t in ts:
            assert abs(t * fps - round(t * fps)) <= 1e-9


class TestAudioClip:
    def test_duration_s(self):
        assert AudioClip(np.zeros(2 * FS + FS // 2), FS).duration_s == 2.5


class TestTfAgc:
    def test_silence_in_silence_out(self):
        out = tf_agc(AudioClip(np.zeros(FS), FS))
        assert np.max(np.abs(out.samples)) == 0.0

    def test_empty_clip_passes_through(self):
        out = tf_agc(AudioClip(np.zeros(0), FS))
        assert out.samples.size == 0 and out.sample_rate_hz == FS

    def test_sinusoid_levels_to_target_rms(self):
        t = np.arange(3 * FS) / FS
        for amp in (1.0, 0.1):
            clip = AudioClip(amp * np.sin(2 * np.pi * 440.0 * t), FS)
            out = tf_agc(clip).samples
            steady = out[FS : int(2.7 * FS)]
            rms = float(np.sqrt(np.mean(steady**2)))
            assert abs(rms - 1 / np.sqrt(2)) <= 0.1 / np.sqrt(2), rms

    def test_level_step_flattened_below_3db(self):
        t = np.arange(3 * FS) / FS
        tone = np.sin(2 * np.pi * 440.0 * t)
        x = np.concatenate([tone, 0.1 * tone])
        out = tf_agc(AudioClip(x, FS)).samples
        r1 = np.sqrt(np.mean(out[FS : int(2.5 * FS)] ** 2))
        r2 = np.sqrt(np.mean(out[4 * FS : int(5.5 * FS)] ** 2))
        assert abs(20.0 * np.log10(r1 / r2)) < 3.0

    def test_band_split_partitions_signal(self):
        rng = np.random.default_rng(3)
        x = rng.uniform(-1, 1, size=4096)
        bands = _octave_band_signals(x, 8)
        np.testing.assert_allclose(bands.sum(axis=0), x, atol=1e-10)

    def test_output_finite(self):
        rng = np.random.default_rng(4)
        x = rng.uniform(-1, 1, size=FS // 2) * 1e-4
        out = tf_agc(AudioClip(x, FS))
        assert np.all(np.isfinite(out.samples))


def _tone(hz, seconds=0.5):
    return np.sin(2 * np.pi * hz * np.arange(int(seconds * FS)) / FS)


def _modulated_noise(seconds=0.5):
    t = np.arange(int(seconds * FS)) / FS
    return np.random.default_rng(6).standard_normal(t.size) * (1 + 0.9 * np.sin(2 * np.pi * 3 * t))


def _chirp(seconds=0.5):
    t = np.arange(int(seconds * FS)) / FS
    return np.sin(2 * np.pi * (100.0 * t + 9000.0 * t * t))


def _clicks(seconds=0.5, every=551):
    return (np.arange(int(seconds * FS)) % every == 0).astype(float)


class TestTfAgcMatchesLoop:
    @pytest.mark.parametrize(
        "signal, kwargs",
        [
            pytest.param(lambda: _tone(440.0), {}, id="tone-440"),
            pytest.param(
                lambda: np.concatenate([_tone(440.0, 0.25), 0.1 * _tone(440.0, 0.25)]), {},
                id="level-step",
            ),
            pytest.param(lambda: np.zeros(FS // 4), {}, id="silence"),
            pytest.param(_modulated_noise, {}, id="modulated-noise"),
            pytest.param(lambda: _tone(60.0), {}, id="tone-60"),
            pytest.param(lambda: _tone(5000.0), {}, id="tone-5k"),
            pytest.param(lambda: _tone(9700.0), {}, id="tone-9k7"),
            pytest.param(_chirp, {}, id="chirp"),
            pytest.param(_clicks, {}, id="clicks"),
            pytest.param(lambda: np.array([0.3]), {}, id="length-1"),
            pytest.param(lambda: np.array([0.3, -2.0]), {}, id="length-2"),
            pytest.param(
                lambda: np.random.default_rng(7).standard_normal(_STRETCH_CHUNK + 1), {},
                id="chunk-plus-one",
            ),
            pytest.param(_chirp, {"attack_s": 1.0 / FS}, id="attack-one-sample"),
            pytest.param(_clicks, {"attack_s": 1e-7}, id="attack-below-one-sample"),
            pytest.param(
                _modulated_noise, {"attack_s": 0.5, "release_s": 0.01},
                id="attack-slower-than-release",
            ),
            pytest.param(_chirp, {"n_bands": 1}, id="one-band"),
            pytest.param(_modulated_noise, {"n_bands": 12}, id="twelve-bands"),
        ],
    )
    def test_matches_per_sample_loop(self, signal, kwargs):
        assert_matches_tf_agc_reference(signal(), FS, **kwargs)


class TestTfAgcParameters:
    @pytest.mark.parametrize(
        "samples, kwargs, name",
        [
            pytest.param(_modulated_noise(0.05), {"n_bands": 0}, "n_bands", id="n_bands-zero"),
            pytest.param(_modulated_noise(0.05), {"n_bands": -1}, "n_bands", id="n_bands-negative"),
            pytest.param(_modulated_noise(0.05), {"n_bands": True}, "n_bands", id="n_bands-bool"),
            pytest.param(_modulated_noise(0.05), {"n_bands": 2.0}, "n_bands", id="n_bands-float"),
            pytest.param(_modulated_noise(0.05), {"attack_s": 0.0}, "attack_s", id="attack-zero"),
            pytest.param(
                _modulated_noise(0.05), {"attack_s": -0.01}, "attack_s", id="attack-negative"
            ),
            pytest.param(
                _modulated_noise(0.05), {"attack_s": np.inf}, "attack_s", id="attack-infinite"
            ),
            pytest.param(
                _modulated_noise(0.05), {"release_s": np.nan}, "release_s", id="release-nan"
            ),
            pytest.param(np.zeros(FS // 20), {"gain_floor": 0.0}, "gain_floor", id="floor-zero"),
            pytest.param(
                _modulated_noise(0.05), {"gain_floor": -1e-6}, "gain_floor", id="floor-negative"
            ),
        ],
    )
    def test_bad_parameter_rejected(self, samples, kwargs, name):
        with pytest.raises(InputError, match=name):
            tf_agc(AudioClip(samples, FS), **kwargs)


class TestMelFilterbank:
    @pytest.mark.parametrize(
        "n_filters, n_fft, rate", [(40, 1024, 22050), (1, 64, 8000), (26, 512, 16000), (80, 2048, 44100)]
    )
    def test_matches_per_filter_reference(self, n_filters, n_fft, rate):
        got, want = mel_filterbank(n_filters, n_fft, rate), mel_filterbank_reference(n_filters, n_fft, rate)
        assert got.shape == want.shape and got.tobytes() == want.tobytes()

    def test_nonnegative(self):
        bank = mel_filterbank(40, 1024, FS)
        assert bank.shape == (40, 513)
        assert np.all(bank >= 0)

    def test_full_coverage_between_first_and_last_centers(self):
        bank = mel_filterbank(40, 1024, FS)
        bin_freqs = np.arange(513) * FS / 1024
        mel = lambda f: 2595.0 * np.log10(1.0 + f / 700.0)
        centers_mel = np.linspace(mel(0.0), mel(FS / 2.0), 42)[1:-1]
        first_c = 700.0 * (10 ** (centers_mel[0] / 2595.0) - 1.0)
        last_c = 700.0 * (10 ** (centers_mel[-1] / 2595.0) - 1.0)
        col_sums = bank.sum(axis=0)
        inside = (bin_freqs > first_c) & (bin_freqs < last_c)
        assert np.all(col_sums[inside] > 0)


class TestDct:
    def test_cached_basis_matches_scipy(self):
        # the MFCC kernels' DCT-II rows are orthonormal and equal scipy's
        # orthonormal DCT-II of the identity, at every filter count
        for m in range(1, 81):
            basis = _mfcc_kernels(m, 64, m)[2]
            np.testing.assert_allclose(basis @ basis.T, np.eye(m), rtol=0, atol=1e-14)
            ref = dct(np.eye(m), type=2, norm="ortho", axis=0)
            np.testing.assert_allclose(basis, ref, rtol=0, atol=1e-14)


class TestMfccFeatures:
    def test_zero_signal_rows(self):
        clip = AudioClip(np.zeros(4096), FS)
        feats = mfcc_features(clip)
        assert feats.shape[1] == 48
        log_floor = np.log(1e-10) * np.ones(40)
        expect_cepstra = dct(log_floor, type=2, norm="ortho")[:16]
        for row in feats:
            np.testing.assert_allclose(row[:16], expect_cepstra, atol=1e-10)
            np.testing.assert_allclose(row[16:], 0.0, atol=1e-10)

    def test_frame_count_formula(self):
        clip = AudioClip(np.zeros(22050), FS)
        feats = mfcc_features(clip)
        assert feats.shape == (42, 48)

    def test_stationary_signal_zero_deltas(self):
        # a periodic signal whose period divides the hop gives identical
        # frames, hence zero deltas everywhere
        t = np.arange(8192)
        x = 0.5 * np.sin(2 * np.pi * t * (FS / 512.0) / FS)
        feats = mfcc_features(AudioClip(x, FS))
        np.testing.assert_allclose(feats[:, 16:], 0.0, atol=1e-10)

    def test_hop_delay_agreement(self):
        rng = np.random.default_rng(6)
        x = rng.uniform(-1, 1, size=16 * 512 + 1024)
        cfg = MfccConfig()
        fx = mfcc_features(AudioClip(x, FS), cfg)
        fy = mfcc_features(AudioClip(x[cfg.hop :], FS), cfg)
        # frame t of the delayed signal covers the samples of frame t+1 of
        # the original, so the cepstra agree row for row
        np.testing.assert_allclose(fy[:, :16], fx[1 : 1 + fy.shape[0], :16], atol=1e-9)
        # delta-delta replication reaches 4 rows; compare beyond it
        np.testing.assert_allclose(fy[4:-4], fx[5 : 1 + fy.shape[0] - 4], atol=1e-9)

    def test_cached_kernels_match_a_fresh_build(self):
        # the window, filterbank and DCT-II basis are built once per
        # configuration, read-only and byte-equal to a fresh build; the
        # features repeat byte for byte and match the per-frame reference.
        # The third configuration frames the chirp in several blocks.
        rng = np.random.default_rng(7)
        t = np.arange(22050) / FS
        signals = {
            "silence": np.zeros(4096),
            "tone": 0.5 * np.sin(2 * np.pi * 440.0 * t),
            "chirp": np.sin(2 * np.pi * (100.0 + 2000.0 * t) * t),
            "noise": rng.uniform(-1, 1, size=9000),
            "impulse": np.eye(1, 3000, 1500)[0],
        }
        configs = (
            MfccConfig(),
            MfccConfig(window_len=512, hop=256, mel_filters=20, n_coeffs=13),
            MfccConfig(window_len=64, hop=8, mel_filters=12, n_coeffs=12),
        )
        for cfg in configs:
            for name, x in signals.items():
                clip = AudioClip(x, FS)
                got = assert_matches_mfcc_reference(clip, cfg)
                assert got.tobytes() == mfcc_features(clip, cfg).tobytes(), name
            key = (cfg.mel_filters, cfg.window_len, cfg.n_coeffs)
            for cached, fresh in zip(_mfcc_kernels(*key), _mfcc_kernels.__wrapped__(*key)):
                assert cached.tobytes() == fresh.tobytes() and not cached.flags.writeable

    def test_long_clip_temporaries_stay_bounded(self):
        # frames are transformed in blocks, so a minute of audio allocates
        # about 11 MB of temporaries, where one block of the whole clip
        # would take about 43 MB
        clip = AudioClip(np.random.default_rng(8).standard_normal(60 * FS), FS)
        mfcc_features(clip)  # builds the cached kernels
        tracemalloc.start()
        try:
            feats = mfcc_features(clip)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert feats.shape == (2582, 48)
        assert peak < 16e6, peak

    def test_wrong_rate_rejected(self):
        with pytest.raises(InputError):
            mfcc_features(AudioClip(np.zeros(4096), 16000))

    def test_too_short_rejected(self):
        with pytest.raises(InputError):
            mfcc_features(AudioClip(np.zeros(512), FS))


class TestDeltaCoefficients:
    def test_constant_rows_zero(self):
        X = np.tile(np.array([1.0, -2.0, 3.0]), (6, 1))
        np.testing.assert_allclose(delta_coefficients(X), 0.0, atol=1e-15)

    def test_linear_ramp_interior(self):
        v = np.array([0.5, -1.5])
        X = np.outer(np.arange(10, dtype=float), v)
        d = delta_coefficients(X)
        # interior rows: sum n*(c_{t+n}-c_{t-n}) / (2 sum n^2)
        # = (1*(2v) + 2*(4v)) / 10 = v
        for t in range(2, 8):
            np.testing.assert_allclose(d[t], v, atol=1e-12)

    def test_single_row_zero(self):
        d = delta_coefficients(np.array([[4.0, 5.0]]))
        np.testing.assert_allclose(d, 0.0, atol=1e-15)
