"""Keyframe detection from frame color histograms and the audio feature
pipeline: automatic gain control and MFCC extraction.

Keyframes come from a two-pass scan: pass one computes L1 differences of
successive normalized histograms and a threshold mean(d) + alpha * std(d);
pass two keeps frames whose difference strictly exceeds the threshold and
then discards candidates showing fewer than `min_colors` distinct colors
(so blank or near-blank frames never become keyframes).

Audio frames use a Hann window of 1024 samples with hop 512 at 22050 Hz
(about 46 ms with 50% overlap). Each frame yields 16 cepstral coefficients
(orthonormal DCT-II of log mel-filterbank energies, 40 triangular filters
from 0 Hz to Nyquist, log floor 1e-10) plus 16 delta and 16 delta-delta
coefficients for a 48-dimensional feature row. The window, the filterbank
and the leading rows of the DCT-II basis are built once per configuration,
and a clip's frames are transformed together, a block of frames at a time,
by one rFFT and two matrix products; the module needs NumPy only.
"""

import math
from dataclasses import dataclass
from functools import lru_cache
from typing import List, Sequence, Tuple

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from .errors import InputError, _as_finite, _check_count, _check_real, _check_type, _freeze

__all__ = [
    "FrameHistogram",
    "AudioClip",
    "MfccConfig",
    "detect_keyframes",
    "sample_context_frames",
    "tf_agc",
    "mel_filterbank",
    "mfcc_features",
    "delta_coefficients",
]


@dataclass(frozen=True)
class FrameHistogram:
    """Color histogram of one video frame."""

    counts: np.ndarray
    frame_index: int
    timestamp_s: float

    def __post_init__(self):
        _check_count(self.frame_index, "frame_index", ge=0)
        _check_real(self.timestamp_s, "timestamp_s", ge=0)
        counts = _as_finite(self.counts, 1, name="histogram counts", nonempty=1)
        if np.any(counts < 0):
            raise InputError("histogram counts must be nonnegative")
        _freeze(self, "counts", counts)


@dataclass(frozen=True)
class AudioClip:
    """Mono PCM audio: one 1-D array of samples and its sample rate."""

    samples: np.ndarray
    sample_rate_hz: int

    def __post_init__(self):
        _check_count(self.sample_rate_hz, "sample_rate_hz")
        _freeze(self, "samples", _as_finite(self.samples, 1, name="samples"))

    @property
    def duration_s(self) -> float:
        return self.samples.size / self.sample_rate_hz


@dataclass(frozen=True)
class MfccConfig:
    """Framing and filterbank settings for MFCC extraction."""

    window_len: int = 1024
    hop: int = 512
    mel_filters: int = 40
    n_coeffs: int = 16

    def __post_init__(self):
        for name in ("window_len", "hop", "mel_filters", "n_coeffs"):
            _check_count(getattr(self, name), name)
        if self.hop > self.window_len:
            raise InputError(f"hop {self.hop} cannot exceed window_len {self.window_len}")
        if self.n_coeffs > self.mel_filters:
            raise InputError(
                f"n_coeffs {self.n_coeffs} cannot exceed mel_filters {self.mel_filters}"
            )


def detect_keyframes(
    frames: Sequence[FrameHistogram],
    alpha: float = 1.0,
    min_colors: int = 26,
) -> List[int]:
    """Two-pass keyframe detection over a frame histogram sequence.

    Returns positions (indices into `frames`) of the detected keyframes.
    """
    _check_real(alpha, "alpha")
    _check_count(min_colors, "min_colors", ge=0)
    frames = list(frames)
    if not all(isinstance(f, FrameHistogram) for f in frames):
        raise InputError("keyframe detection takes FrameHistogram frames")
    if len(frames) < 2:
        raise InputError(f"keyframe detection needs >= 2 frames, got {len(frames)}")

    counts = _as_finite([f.counts for f in frames], 2, name="frame histograms")
    totals = counts.sum(axis=1, keepdims=True)
    normalized = counts / np.where(totals > 0, totals, 1.0)
    diffs = np.abs(np.diff(normalized, axis=0)).sum(axis=1)
    threshold = float(diffs.mean() + alpha * diffs.std())
    colors = np.count_nonzero(counts[1:] > 0, axis=1)
    return [int(i) + 1 for i in np.flatnonzero((diffs > threshold) & (colors >= min_colors))]


def sample_context_frames(
    keyframe_ts: float,
    fps: float,
    count: int = 10,
    span_s: float = 5.0,
) -> List[float]:
    """Timestamps of `count` uniformly spaced frames in a span centered on
    the keyframe, snapped to the frame grid. Windows that would start
    before zero are shifted to start at zero, keeping the full span.
    """
    _check_real(keyframe_ts, "keyframe_ts")
    _check_real(fps, "fps", gt=0)
    _check_count(count, "count")
    _check_real(span_s, "span_s", ge=0)
    start = max(0.0, keyframe_ts - span_s / 2.0)
    times = np.linspace(start, start + span_s, count)
    snapped = np.round(times * fps) / fps
    return [float(t) for t in snapped]


def _octave_band_signals(x: np.ndarray, n_bands: int) -> np.ndarray:
    """Split a signal into octave bands by rFFT bin masking.

    Band 0 is the top octave (Nyquist/2, Nyquist]; each next band halves
    the range; the last band keeps everything below, including DC. The
    bands partition the spectrum, so they sum back to the input exactly.
    """
    n = x.size
    freqs = np.fft.rfftfreq(n)  # cycles/sample, up to 0.5
    hi = 0.5 / 2.0 ** np.arange(n_bands)
    lo = hi / 2.0
    lo[-1] = -1.0
    masks = (freqs > lo[:, None]) & (freqs <= hi[:, None])
    return np.fft.irfft(np.fft.rfft(x) * masks, n=n, axis=-1)


# The gain smoother evaluates at most this many samples in one closed-form
# pass. Its cumulative sum adds positive terms only, so the pass's relative
# error stays below about _STRETCH_CHUNK * eps, or 2.3e-13.
_STRETCH_CHUNK = 2048
# A pass scales targets by a^-j, which grows as exp(j / (tau * fs)). This
# caps the exponent so that e^300 times the largest possible target,
# 1/sqrt(smallest positive double) = 4.5e161, times the chunk length stays
# far below the largest double.
_STRETCH_LOG_GROWTH = 300.0


def _peak_envelope(power: np.ndarray, release_rate: float) -> np.ndarray:
    """Row-wise env[n] = max(p[n], decay * env[n-1]), env[-1] = 0, where
    decay = exp(-release_rate), in closed form:

        env[n] = max over k <= n of p[k] * decay^(n-k)

    The peak k is the running argmax of log p[k] + k * release_rate, which
    cannot overflow; log 0 = -inf loses to any positive power, and
    env stays 0 until the first nonzero sample.
    The value is then p[k] * decay^(n-k) with decay^m read from one table
    of powers, the same rounded decay the recursion multiplies by.
    """
    rows, n = power.shape
    k = np.arange(n)
    with np.errstate(divide="ignore"):
        score = np.log(power) + k * release_rate
    best = np.maximum.accumulate(score, axis=1)
    peak = np.maximum.accumulate(np.where(score == best, k, 0), axis=1)
    decay_pow = math.exp(-release_rate) ** k
    return power.ravel()[peak + n * np.arange(rows)[:, None]] * decay_pow[k - peak]


def _smooth_gain(target: np.ndarray, modes: dict, chunk: int) -> np.ndarray:
    """gain[n] = gain[n-1] + c * (target[n] - gain[n-1]), gain[-1] = 1,
    with c the attack coefficient when target[n] < gain[n-1] and the
    release coefficient otherwise, evaluated one stretch of a single mode
    at a time.

    While the mode holds, the filter is linear with a = 1 - c:

        gain[s+j] = a^(j+1) * (gain[s-1] + c * sum_{i<=j} a^-(i+1) * target[s+i])

    One pass evaluates that over up to `chunk` samples with one cumsum;
    the stretch ends before the first sample whose own mode test against
    the trajectory disagrees, and the next pass starts there. The exact
    gain never crosses its target within a stretch, so each value is
    clipped to its target's side; that keeps rounding from flipping the
    mode back and forth once the gain has settled. After a short stretch
    the next pass is shortened to twice its length, so that signals that
    switch modes often do not pay for whole chunks.

    `modes` maps True (attack) and False (release) to (c, a^j, a^-j) for
    j = 1..chunk; a^j is None when a = 0, where the gain jumps to target.
    """
    n = target.size
    gain = np.empty(n)
    g = 1.0
    s = 0
    length = chunk
    while s < n:
        attack = bool(target[s] < g)
        c, up, down = modes[attack]
        t = target[s : s + length]
        m = t.size
        if up is None:
            traj = t
        else:
            traj = up[:m] * (g + c * np.cumsum(down[:m] * t))
            traj = np.maximum(traj, t) if attack else np.minimum(traj, t)
        flips = (t[1:] < traj[:-1]) != attack
        stop = int(np.argmax(flips)) + 1 if flips.any() else m
        gain[s : s + stop] = traj[:stop]
        g = traj[stop - 1]
        s += stop
        length = min(chunk, 2 * stop)
    return gain


def tf_agc(
    clip: AudioClip,
    n_bands: int = 8,
    attack_s: float = 0.025,
    release_s: float = 0.25,
    gain_floor: float = 1e-6,
) -> AudioClip:
    """Time-frequency automatic gain control.

    Each octave band tracks its peak power with an instant-capture,
    release-rate-decay envelope; the per-band gain 1/sqrt(max(env, floor))
    is then smoothed with the attack constant when the gain must fall
    (signal got louder) and the release constant when it may rise. Silent
    input stays silent because zero samples times any finite gain is zero.

    Both stages are exact closed forms of their per-sample recursions, so
    no Python loop runs per sample:

    - the envelope env[n] = max(p[n], decay * env[n-1]) equals
      decay^n * max over k <= n of p[k] * decay^-k, whose running maximum
      is taken in the log domain with np.maximum.accumulate;
    - the smoother is a one-pole filter whose coefficient switches on the
      sign of target - gain. Over a stretch that stays in one mode it is
      linear and is evaluated with one cumsum per chunk of at most 2048
      samples; the next stretch starts at the first sample whose mode test
      disagrees. Noise-like audio seldom switches, so a 0.1-s clip of it
      takes a pass or two per band; a steady tone switches every few dozen
      samples.

    The output matches the per-sample recursion to about 1e-14 relative to
    its largest magnitude. n_bands must be an integer >= 1; attack_s,
    release_s and gain_floor must be finite and > 0.
    """
    _check_type(clip, AudioClip, "clip")
    _check_count(n_bands, "n_bands")
    _check_real(attack_s, "attack_s", gt=0)
    _check_real(release_s, "release_s", gt=0)
    _check_real(gain_floor, "gain_floor", gt=0)
    x = clip.samples
    if x.size == 0:
        return clip
    fs = clip.sample_rate_hz
    bands = _octave_band_signals(x, n_bands)
    attack_rate = 1.0 / (attack_s * fs)
    release_rate = 1.0 / (release_s * fs)
    env = _peak_envelope(bands * bands, release_rate)
    target = 1.0 / np.sqrt(np.maximum(env, gain_floor))

    chunk = max(1, min(_STRETCH_CHUNK, x.size,
                       int(_STRETCH_LOG_GROWTH / max(attack_rate, release_rate))))
    j = np.arange(1, chunk + 1)
    modes = {}
    for attack, rate in ((True, attack_rate), (False, release_rate)):
        c = 1.0 - math.exp(-rate)
        a = 1.0 - c
        up = a**j if a > 0.0 else None
        modes[attack] = (c, up, None if up is None else 1.0 / up)

    out = np.zeros_like(x)
    for band, band_target in zip(bands, target):
        out += band * _smooth_gain(band_target, modes, chunk)
    return AudioClip(samples=out, sample_rate_hz=fs)


def _hz_to_mel(f):
    return 2595.0 * np.log10(1.0 + np.asarray(f) / 700.0)


def _mel_to_hz(m):
    return 700.0 * (10.0 ** (np.asarray(m) / 2595.0) - 1.0)


def mel_filterbank(n_filters: int, n_fft: int, sample_rate_hz: int) -> np.ndarray:
    """Triangular mel filterbank over rFFT bins, 0 Hz to Nyquist.

    Returns an (n_filters, n_fft // 2 + 1) matrix of nonnegative weights;
    filter m rises from boundary point m-1 to its center at point m and
    falls to point m+1, with the n_filters + 2 boundary points uniformly
    spaced on the mel scale.
    """
    _check_count(n_filters, "n_filters")
    _check_count(n_fft, "n_fft")
    _check_count(sample_rate_hz, "sample_rate_hz")
    nyquist = sample_rate_hz / 2.0
    mel_points = np.linspace(_hz_to_mel(0.0), _hz_to_mel(nyquist), n_filters + 2)
    hz_points = _mel_to_hz(mel_points)
    bin_freqs = np.arange(n_fft // 2 + 1) * sample_rate_hz / n_fft

    left, center, right = hz_points[:-2, None], hz_points[1:-1, None], hz_points[2:, None]
    rising = (bin_freqs - left) / (center - left)
    falling = (right - bin_freqs) / (right - center)
    return np.maximum(0.0, np.minimum(rising, falling))


def delta_coefficients(seq, window: int = 2) -> np.ndarray:
    """Regression deltas over feature rows with edge replication:

        delta_t = sum_{n=1..window} n (c_{t+n} - c_{t-n}) / (2 sum n^2)
    """
    X = _as_finite(seq, 2, name="delta input", nonempty=1)
    _check_count(window, "window")
    t = X.shape[0]
    padded = np.concatenate(
        [np.repeat(X[:1], window, axis=0), X, np.repeat(X[-1:], window, axis=0)]
    )
    denom = 2.0 * sum(n * n for n in range(1, window + 1))
    out = np.zeros_like(X)
    for n in range(1, window + 1):
        out += n * (padded[window + n : window + n + t] - padded[window - n : window - n + t])
    return out / denom


# mfcc_features transforms at most this many frames at once, so that the
# temporaries of a minutes-long clip stay near 10 MB at the default
# 1024-sample window instead of growing with the clip.
_MFCC_BLOCK_FRAMES = 512


@lru_cache(maxsize=8)
def _mfcc_kernels(
    mel_filters: int, window_len: int, n_coeffs: int
) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The Hann window, the 22050-Hz mel filterbank and the first n_coeffs
    rows of the orthonormal DCT-II basis of one MFCC configuration, built
    once and returned read-only.

    Basis row k holds s_k cos(pi k (2j + 1) / (2M)) for j < M = mel_filters,
    with s_0 = sqrt(1/M) and s_k = sqrt(2/M); each angle is taken from the
    exact integer r = k (2j + 1) mod 4M as pi r / (2M), below 2 pi.
    """
    window = np.hanning(window_len)
    bank = mel_filterbank(mel_filters, window_len, 22050)
    k = np.arange(n_coeffs)[:, None]
    r = (k * (2 * np.arange(mel_filters) + 1)) % (4 * mel_filters)
    scale = np.where(k == 0, math.sqrt(1.0 / mel_filters), math.sqrt(2.0 / mel_filters))
    basis = scale * np.cos(np.pi * r / (2 * mel_filters))
    for kernel in (window, bank, basis):
        kernel.flags.writeable = False
    return window, bank, basis


def mfcc_features(clip: AudioClip, cfg: MfccConfig = MfccConfig()) -> np.ndarray:
    """MFCC + delta + delta-delta rows, one per analysis frame.

    The clip must already be at 22050 Hz (no implicit resampling) and at
    least one window long; frame count is floor((L - window)/hop) + 1.
    Frames are strided views of the clip, transformed a block of at most
    _MFCC_BLOCK_FRAMES at a time: one rFFT, one product with the mel
    filterbank and, after the log, one product with the cached DCT-II
    basis.
    """
    _check_type(clip, AudioClip, "clip")
    _check_type(cfg, MfccConfig, "cfg")
    if clip.sample_rate_hz != 22050:
        raise InputError(
            f"expected 22050 Hz input, got {clip.sample_rate_hz} (resample upstream)"
        )
    x = clip.samples
    if x.size < cfg.window_len:
        raise InputError(
            f"clip has {x.size} samples, need at least window_len={cfg.window_len}"
        )

    window, bank, basis = _mfcc_kernels(cfg.mel_filters, cfg.window_len, cfg.n_coeffs)
    frames = sliding_window_view(x, cfg.window_len)[:: cfg.hop]
    cepstra = np.empty((frames.shape[0], cfg.n_coeffs))
    for start in range(0, frames.shape[0], _MFCC_BLOCK_FRAMES):
        block = slice(start, start + _MFCC_BLOCK_FRAMES)
        power = np.abs(np.fft.rfft(frames[block] * window)) ** 2
        log_energy = np.log(np.maximum(power @ bank.T, 1e-10))
        cepstra[block] = log_energy @ basis.T

    d1 = delta_coefficients(cepstra, window=2)
    d2 = delta_coefficients(d1, window=2)
    return np.hstack([cepstra, d1, d2])
