"""Shared test utilities: small random problem builders, the LASSO and
SVM objectives the tests judge codes and models by, and reference
implementations kept deliberately independent of the library code paths."""

import math
from typing import Tuple

import numpy as np

from mmsparse.classify import LinearSvm, _as_labels
from mmsparse.errors import _as_finite, _check_real
from mmsparse.media import AudioClip, tf_agc
from mmsparse.solvers import Dictionary, _example_and_code


def unit_column_dictionary(rng, n, k, modality_dims=None) -> Dictionary:
    """Random dictionary with iid Gaussian columns normalized to unit norm."""
    atoms = rng.standard_normal((n, k))
    atoms /= np.linalg.norm(atoms, axis=0, keepdims=True)
    return Dictionary(atoms, modality_dims=modality_dims)


def lasso_objective(x, d: Dictionary, y, lam: float) -> float:
    """Value of ||x - D y||^2 + lam * ||y||_1, with the library's checks on
    x, the code y (array or SparseCode) and lam."""
    _check_real(lam, "lam", ge=0)
    x, coeffs = _example_and_code(x, d, y)
    r = x - d.atoms @ coeffs
    return float(r @ r + lam * np.sum(np.abs(coeffs)))


def lasso_objective_ref(x, atoms, y, lam) -> float:
    """Objective ||x - D y||^2 + lam ||y||_1 by direct evaluation."""
    r = x - atoms @ y
    return float(r @ r + lam * np.sum(np.abs(y)))


def svm_objective(m: LinearSvm, x, labels) -> float:
    """Primal hinge objective of a model on a labeled set, with the
    library's checks on the features and the +-1 labels."""
    X = _as_finite(x, 2, name="features", nonempty=1)
    y = _as_labels(labels, X.shape[0])
    margins = y * (X @ m.weights + m.bias)
    return float(0.5 * m.weights @ m.weights + m.c * np.sum(np.maximum(0.0, 1.0 - margins)))


def proximal_gradient_lasso(x, atoms, lam, max_iter=1_000_000, stop_delta=1e-14):
    """Independent LASSO oracle: proximal gradient descent (ISTA).

    Gradient step on the smooth part ||x - D y||^2 (gradient 2 D^T (D y - x),
    Lipschitz constant 2 lmax(D^T D)) followed by the prox of step*lam*||.||_1,
    i.e. a soft threshold at step * lam. Runs a fixed-step iteration budget
    with early exit once iterates stop moving.
    """
    gram = atoms.T @ atoms
    lip = 2.0 * float(np.linalg.eigvalsh(gram).max())
    step = 1.0 / lip
    thresh = step * lam
    dtx = atoms.T @ x
    y = np.zeros(atoms.shape[1])
    for _ in range(max_iter):
        grad = 2.0 * (gram @ y - dtx)
        v = y - step * grad
        y_next = np.sign(v) * np.maximum(np.abs(v) - thresh, 0.0)
        if np.max(np.abs(y_next - y)) < stop_delta:
            y = y_next
            break
        y = y_next
    return y


def octave_band_signals_ref(x: np.ndarray, n_bands: int) -> np.ndarray:
    """Octave-band split by rFFT bin masking, one inverse FFT per band."""
    n = x.size
    spectrum = np.fft.rfft(x)
    freqs = np.fft.rfftfreq(n)  # cycles/sample, up to 0.5
    nyq = 0.5
    bands = np.empty((n_bands, n))
    lower_edges = [nyq / 2 ** (b + 1) for b in range(n_bands)]
    for b in range(n_bands):
        hi = nyq / 2**b
        lo = lower_edges[b] if b < n_bands - 1 else 0.0
        if b == n_bands - 1:
            mask = freqs <= hi
        else:
            mask = (freqs > lo) & (freqs <= hi)
        bands[b] = np.fft.irfft(spectrum * mask, n=n)
    return bands


def tf_agc_reference(
    clip: AudioClip,
    n_bands: int = 8,
    attack_s: float = 0.025,
    release_s: float = 0.25,
    gain_floor: float = 1e-6,
) -> AudioClip:
    """tf-AGC oracle: the envelope and the gain smoother run sample by
    sample, exactly as their recursions read."""
    x = clip.samples
    if x.size == 0:
        return clip
    fs = clip.sample_rate_hz
    bands = octave_band_signals_ref(x, n_bands)
    decay = math.exp(-1.0 / (release_s * fs))
    c_attack = 1.0 - math.exp(-1.0 / (attack_s * fs))
    c_release = 1.0 - math.exp(-1.0 / (release_s * fs))

    out = np.zeros_like(x)
    for b in range(n_bands):
        band = bands[b]
        env = 0.0
        gain = 1.0
        gained = np.empty_like(band)
        for n in range(band.size):
            p = band[n] * band[n]
            env = p if p > env * decay else env * decay
            target = 1.0 / math.sqrt(env if env > gain_floor else gain_floor)
            c = c_attack if target < gain else c_release
            gain += c * (target - gain)
            gained[n] = band[n] * gain
        out += gained
    return AudioClip(samples=out, sample_rate_hz=fs)


def assert_matches_tf_agc_reference(x, fs, **kwargs):
    """tf_agc(x) equals the per-sample oracle to 1e-12 of the larger of 1
    and the oracle's peak magnitude."""
    clip = AudioClip(np.asarray(x, dtype=float), fs)
    ref = tf_agc_reference(clip, **kwargs).samples
    got = tf_agc(clip, **kwargs).samples
    scale = max(1.0, float(np.max(np.abs(ref), initial=0.0)))
    err = float(np.max(np.abs(got - ref), initial=0.0))
    assert err <= 1e-12 * scale, (err, scale)


def mel_filterbank_reference(n_filters, n_fft, sample_rate_hz) -> np.ndarray:
    """Triangular mel filterbank built one filter at a time."""
    mel = lambda f: 2595.0 * np.log10(1.0 + np.asarray(f) / 700.0)
    mel_points = np.linspace(mel(0.0), mel(sample_rate_hz / 2.0), n_filters + 2)
    hz_points = 700.0 * (10.0 ** (mel_points / 2595.0) - 1.0)
    bin_freqs = np.arange(n_fft // 2 + 1) * sample_rate_hz / n_fft
    bank = np.zeros((n_filters, bin_freqs.size))
    for m in range(n_filters):
        left, center, right = hz_points[m], hz_points[m + 1], hz_points[m + 2]
        rising = (bin_freqs - left) / (center - left)
        falling = (right - bin_freqs) / (right - center)
        bank[m] = np.maximum(0.0, np.minimum(rising, falling))
    return bank


def detect_keyframes_reference(frames, alpha=1.0, min_colors=26):
    """Two-pass keyframe detection with one histogram difference per
    successive pair of frames."""
    normalized = []
    for f in frames:
        total = float(f.counts.sum())
        normalized.append(f.counts / total if total > 0 else f.counts)
    diffs = np.array(
        [float(np.sum(np.abs(normalized[i + 1] - normalized[i]))) for i in range(len(frames) - 1)]
    )
    threshold = float(diffs.mean() + alpha * diffs.std())
    return [
        i + 1
        for i, d in enumerate(diffs)
        if d > threshold and np.count_nonzero(frames[i + 1].counts > 0) >= min_colors
    ]


def smo_reference(
    gram: np.ndarray,
    y: np.ndarray,
    c: float,
    tol: float,
    max_steps: int,
) -> Tuple[np.ndarray, np.ndarray, float]:
    """Most-violating-pair dual coordinate optimization over at most
    max_steps pair updates; returns (alpha, dual gradient, gap), where gap
    is the max-violating-pair gap at the returned alpha (-inf when no pair
    can move).

    The alpha-form SMO that classify._smo restates in beta = y * alpha."""
    n = y.shape[0]
    Q = gram * np.outer(y, y)
    alpha = np.zeros(n)
    grad = -np.ones(n)  # Q @ alpha - 1
    pos = y > 0
    gap = np.inf  # nothing measured yet
    for step in range(max_steps + 1):
        mg = -y * grad
        up = np.where(pos, alpha < c, alpha > 0)
        low = np.where(pos, alpha > 0, alpha < c)
        if not up.any() or not low.any():
            gap = -np.inf
            break
        mg_up = np.where(up, mg, -np.inf)
        mg_low = np.where(low, mg, np.inf)
        i = int(np.argmax(mg_up))
        j = int(np.argmin(mg_low))
        gap = float(mg_up[i] - mg_low[j])
        if gap < tol or step == max_steps:
            break
        si, sj = y[i], y[j]
        quad = max(Q[i, i] + Q[j, j] - 2.0 * si * sj * Q[i, j], 1e-12)
        t = -(si * grad[i] - sj * grad[j]) / quad
        lo_i, hi_i = sorted(((0.0 - alpha[i]) * si, (c - alpha[i]) * si))
        lo_j, hi_j = sorted(((alpha[j] - c) * sj, alpha[j] * sj))
        t = min(max(t, max(lo_i, lo_j)), min(hi_i, hi_j))
        if t == 0.0:
            break
        d_i, d_j = si * t, -sj * t
        alpha[i] = min(max(alpha[i] + d_i, 0.0), c)
        alpha[j] = min(max(alpha[j] + d_j, 0.0), c)
        grad += Q[:, i] * d_i + Q[:, j] * d_j
    return alpha, grad, gap


def bias_from_dual_reference(alpha, grad, y, c) -> float:
    mg = -y * grad
    free = np.flatnonzero((alpha > 1e-12 * c) & (alpha < c * (1.0 - 1e-12)))
    if free.size:
        return float(np.mean(mg[free]))
    pos = y > 0
    up = np.where(pos, alpha < c, alpha > 0)
    low = np.where(pos, alpha > 0, alpha < c)
    hi = float(np.max(mg[up])) if up.any() else 0.0
    lo = float(np.min(mg[low])) if low.any() else 0.0
    return 0.5 * (hi + lo)


def svm_reference(X, y, c, tol=1e-9, max_steps=None):
    """(weights, bias, converged) of the alpha-form SMO on the default
    step budget of train_svm."""
    budget = max_steps if max_steps is not None else max(200 * X.shape[0], 20000)
    alpha, grad, gap = smo_reference(X @ X.T, y, c, tol, budget)
    return X.T @ (alpha * y), bias_from_dual_reference(alpha, grad, y, c), gap < tol
