"""Shared test utilities: small random problem builders, the LASSO and
SVM objectives the tests judge codes and models by, and reference
implementations kept deliberately independent of the library code paths."""

import math
import os
from typing import Tuple

import numpy as np
from scipy.fft import dct

from mmsparse.classify import LinearSvm, _train_all
from mmsparse.errors import InputError, _as_finite, _check_real
from mmsparse.media import (
    AudioClip,
    MfccConfig,
    delta_coefficients,
    mel_filterbank,
    mfcc_features,
    tf_agc,
)
from mmsparse.solvers import _PIVOT_RTOL, Dictionary, _example_and_code


def examples(count: int) -> int:
    """Hypothesis examples for a property test: `count`, or more when the
    profile named by HYPOTHESIS_PROFILE (see conftest.py) asks for more."""
    if os.environ.get("HYPOTHESIS_PROFILE"):
        from hypothesis import settings

        return max(count, settings.default.max_examples)
    return count


def unit_column_dictionary(rng, n, k) -> Dictionary:
    """Random dictionary with iid Gaussian columns normalized to unit norm."""
    atoms = rng.standard_normal((n, k))
    atoms /= np.linalg.norm(atoms, axis=0, keepdims=True)
    return Dictionary(atoms)


def lasso_objective(x, d: Dictionary, y, lam: float) -> float:
    """Value of ||x - D y||^2 + lam * ||y||_1, with the library's checks on
    x, the code array y and lam."""
    _check_real(lam, "lam", ge=0)
    x, coeffs = _example_and_code(x, d, y)
    r = x - d.atoms @ coeffs
    return float(r @ r + lam * np.sum(np.abs(coeffs)))


def lasso_objective_ref(x, atoms, y, lam) -> float:
    """Objective ||x - D y||^2 + lam ||y||_1 by direct evaluation."""
    r = x - atoms @ y
    return float(r @ r + lam * np.sum(np.abs(y)))


def _as_labels(labels, rows: int) -> np.ndarray:
    """labels as one +1 or -1 per row, or InputError."""
    y = _as_finite(labels, 1, name="labels")
    if y.shape[0] != rows:
        raise InputError(f"{y.shape[0]} labels for {rows} rows")
    if not np.all(np.abs(y) == 1.0):
        raise InputError("labels must be +1 or -1")
    return y


def train_svm(X, y, c, max_steps=None) -> LinearSvm:
    """One SVM on the +-1 labels y: _train_all on one label row."""
    return _train_all(X, y[None, :], [c], max_steps)[0]


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


def path_reference(c0: np.ndarray, G: np.ndarray, half_lam: float, max_iter: int):
    """The LASSO homotopy of one row, given c0 = D^T x and G = D^T D, with
    masked copies of each candidate array at every step: the reference that
    solvers._path must match, with the same active list and the same y_A
    bytes, or None where this returns None.

    As mu falls from max|c0| to lam/2, the active atoms A with signs s_A
    keep y_A(mu) = G_AA^-1 (c0_A - mu s_A) = u - mu w, and every correlation
    c(mu) = c0 - G[:, A] y_A(mu) = p + mu q stays within +-mu. A step ends
    at the largest mu below the current one where an inactive c_j reaches
    +-mu (j joins A) or an active y_j reaches 0 (j leaves A). M = G_AA^-1
    is updated as atoms join and leave. Returns (A, y_A) at mu = lam/2, or
    None when the path needs more than max_iter steps or G_AA turns
    singular.
    """
    j = int(np.argmax(np.abs(c0)))
    if abs(c0[j]) <= half_lam:
        return [], np.zeros(0)
    active, signs = [j], [1.0 if c0[j] > 0 else -1.0]
    M = np.array([[1.0 / G[j, j]]])
    inactive = np.ones(c0.shape[0], dtype=bool)
    inactive[j] = False
    left, left_sign = -1, 0.0  # the atom that left in the previous step
    for _ in range(max_iter):
        GA = G[:, active]
        u, w = (M @ np.column_stack([c0[active], signs])).T
        p = c0 - GA @ u
        q = GA @ w
        # joins: p_j + mu q_j reaches +mu (while 1 - q_j > 0) or -mu (while
        # 1 + q_j > 0) at these mu. An atom that just left sits at
        # s_j mu, a root of its own sign's branch: only the other can count.
        up_ok, down_ok = inactive & (q < 1.0), inactive & (q > -1.0)
        if left >= 0:
            (up_ok if left_sign > 0 else down_ok)[left] = False
        up = np.where(up_ok, p, -np.inf) / np.where(up_ok, 1.0 - q, 1.0)
        down = np.where(down_ok, -p, -np.inf) / np.where(down_ok, 1.0 + q, 1.0)
        jn = int(np.argmax(np.maximum(up, down)))
        mu_join = max(up[jn], down[jn])
        # drops: y_j shrinks to 0 where s_j w_j < 0. An atom that joined
        # moving against its sign has y_j = 0 already and leaves at once.
        shrinks = np.asarray(signs) * w < 0.0
        drops = np.where(shrinks, u, -np.inf) / np.where(shrinks, w, 1.0)
        dr = int(np.argmax(drops))
        if max(mu_join, drops[dr]) <= half_lam:
            # solved afresh: the updates of M leave rounding behind
            end = c0[active] - half_lam * np.asarray(signs)
            return active, np.linalg.solve(GA[active], end)
        if drops[dr] >= mu_join:
            left, left_sign = active.pop(dr), signs.pop(dr)
            inactive[left] = True
            keep = np.arange(M.shape[0]) != dr
            M = M[keep][:, keep] - np.outer(M[keep, dr], M[dr, keep]) / M[dr, dr]
        else:
            # bordered inverse; its pivot is the Cholesky pivot of jn
            b = M @ GA[jn]
            pivot = G[jn, jn] - GA[jn] @ b
            if not pivot >= _PIVOT_RTOL * G[jn, jn]:
                return None
            n = M.shape[0]
            grown = np.empty((n + 1, n + 1))
            grown[:n, :n] = M + np.outer(b, b) / pivot
            grown[:n, n] = grown[n, :n] = -b / pivot
            grown[n, n] = 1.0 / pivot
            M = grown
            left = -1
            active.append(jn)
            signs.append(1.0 if up[jn] >= down[jn] else -1.0)
            inactive[jn] = False
    return None


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


def mfcc_reference(clip: AudioClip, cfg: MfccConfig = MfccConfig()) -> np.ndarray:
    """MFCC + delta + delta-delta rows with the Hann window and the mel
    filterbank built afresh, one frame transformed at a time."""
    x = clip.samples
    n_frames = (x.size - cfg.window_len) // cfg.hop + 1
    window = np.hanning(cfg.window_len)
    bank = mel_filterbank(cfg.mel_filters, cfg.window_len, clip.sample_rate_hz)
    cepstra = np.empty((n_frames, cfg.n_coeffs))
    for t in range(n_frames):
        frame = x[t * cfg.hop : t * cfg.hop + cfg.window_len] * window
        power = np.abs(np.fft.rfft(frame)) ** 2
        log_energy = np.log(np.maximum(bank @ power, 1e-10))
        cepstra[t] = dct(log_energy, type=2, norm="ortho")[: cfg.n_coeffs]
    d1 = delta_coefficients(cepstra, window=2)
    return np.hstack([cepstra, d1, delta_coefficients(d1, window=2)])


def assert_matches_mfcc_reference(clip: AudioClip, cfg: MfccConfig) -> np.ndarray:
    """mfcc_features(clip, cfg) equals the per-frame oracle to 1e-12 of the
    larger of 1 and the oracle's peak magnitude; returns the features.
    Bit equality is not asked: scipy's DCT runs through an FFT, whose
    rounding a product with the DCT-II basis does not repeat."""
    ref = mfcc_reference(clip, cfg)
    got = mfcc_features(clip, cfg)
    assert got.shape == ref.shape
    scale = max(1.0, float(np.max(np.abs(ref))))
    err = float(np.max(np.abs(got - ref)))
    assert err <= 1e-12 * scale, (err, scale)
    return got


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

    The alpha-form SMO that classify._smo_batch restates in beta = y * alpha.
    A step changes alpha at i and j only, so the masks of the coordinates
    that can move up and down are updated there, and the step's scalar
    arithmetic runs on Python floats, which round as NumPy's do."""
    n = y.shape[0]
    Q = gram * np.outer(y, y)
    Q_cols = np.ascontiguousarray(Q.T)  # Q_cols[i] is Q[:, i]
    q_diag, ys, pos = Q.diagonal().tolist(), y.tolist(), (y > 0).tolist()
    neg_y = -y
    alpha = np.zeros(n)
    grad = -np.ones(n)  # Q @ alpha - 1
    up = np.where(y > 0, alpha < c, alpha > 0)
    low = np.where(y > 0, alpha > 0, alpha < c)
    for step in range(max_steps + 1):
        mg = neg_y * grad
        mg_up = np.where(up, mg, -np.inf)
        mg_low = np.where(low, mg, np.inf)
        i, j = int(mg_up.argmax()), int(mg_low.argmin())
        # -inf when no coordinate can move up or none down
        gap = mg_up.item(i) - mg_low.item(j)
        if gap < tol or step == max_steps:
            break
        si, sj, a_i, a_j = ys[i], ys[j], alpha.item(i), alpha.item(j)
        quad = max(q_diag[i] + q_diag[j] - 2.0 * si * sj * Q.item(i, j), 1e-12)
        t = -(si * grad.item(i) - sj * grad.item(j)) / quad
        lo_i, hi_i = sorted(((0.0 - a_i) * si, (c - a_i) * si))
        lo_j, hi_j = sorted(((a_j - c) * sj, a_j * sj))
        t = min(max(t, max(lo_i, lo_j)), min(hi_i, hi_j))
        if t == 0.0:
            break
        d_i, d_j = si * t, -sj * t
        alpha[i] = min(max(a_i + d_i, 0.0), c)
        alpha[j] = min(max(alpha.item(j) + d_j, 0.0), c)
        grad += Q_cols[i] * d_i + Q_cols[j] * d_j
        for r in (i, j):
            a = alpha.item(r)
            up[r], low[r] = (a < c, a > 0) if pos[r] else (a > 0, a < c)
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
    """(weights, bias, converged, alpha) of the alpha-form SMO on the
    default step budget of classify._train_all."""
    budget = max_steps if max_steps is not None else max(200 * X.shape[0], 20000)
    alpha, grad, gap = smo_reference(X @ X.T, y, c, tol, budget)
    return X.T @ (alpha * y), bias_from_dual_reference(alpha, grad, y, c), gap < tol, alpha
