"""Every public entry point that takes a numeric array rejects a non-finite
value and a wrong number of dimensions with InputError; every public
scalar setting rejects a non-finite or out-of-range value, and a count also
a fraction and a bool. The objective oracles in helpers keep the same
checks. Frozen dataclasses keep copies of the arrays they are given."""

import math
import os
from dataclasses import replace

import numpy as np
import pytest

from mmsparse.classify import (
    EventModel,
    LinearSvm,
    cross_validate,
    decision_score,
    predict_event,
    stratified_folds,
    train_event_models,
)
from mmsparse.dictlearn import LearnConfig, learn_dictionary
from mmsparse.errors import InputError
from mmsparse.features import (
    PooledFeature,
    apply_whitening,
    fit_whitening,
    pool_clip,
)
from mmsparse.gmm import fit_gmm_em, gmm_supervector
from mmsparse.media import (
    AudioClip,
    FrameHistogram,
    MfccConfig,
    delta_coefficients,
    detect_keyframes,
    mel_filterbank,
    mfcc_features,
    sample_context_frames,
    tf_agc,
)
from mmsparse.metrics import RankedList, average_precision
from mmsparse.multimodal import (
    JointDictionary,
    ModalityPair,
    encode_cross_modal,
    fuse_rows,
    lambda_joint_of,
    learn_joint,
    union_features,
)
from mmsparse.solvers import (
    Dictionary,
    SolverConfig,
    SparseCode,
    kkt_violation,
    lasso_encode_batch,
)
from mmsparse.storage import save_matrix

from helpers import lasso_objective, svm_objective, unit_column_dictionary

_rng = np.random.default_rng(0)
D = unit_column_dictionary(_rng, 4, 3)
CFG = SolverConfig(lam=0.1)
X = _rng.standard_normal((6, 4))  # rows of dimension D.input_dim
Y = _rng.standard_normal((6, 3))  # codes of X against D
x, y = X[0], Y[0]
LABELS = np.array([1.0, -1.0] * 3)
EVENTS = ["a", "b"] * 3
SVM = LinearSvm(weights=np.ones(4), bias=0.0, c=1.0)
EM = EventModel(event_ids=("a", "b"), models=(SVM, SVM))
WHITEN = fit_whitening(X, 2)
GMM, _ = fit_gmm_em(X, 2, max_iter=2)
LEARN = LearnConfig(atom_count=3, lam=0.1, epochs=1)
AUDIO = AudioClip(np.sin(np.arange(1024.0)), 22050)  # one MFCC window long
RANKED = RankedList(x, np.array([1, 0, 1, 0]), ("p", "q", "r", "s"))

# name -> (an accepted array, a call that passes its argument in that slot)
CASES = {
    "Dictionary": (D.atoms, lambda a: Dictionary(a)),
    "SparseCode": (y, lambda a: SparseCode(a)),
    "lasso_encode_batch": (X, lambda a: lasso_encode_batch(a, D, CFG)),
    "lasso_objective:x": (x, lambda a: lasso_objective(a, D, y, 0.1)),
    "lasso_objective:y": (y, lambda a: lasso_objective(x, D, a, 0.1)),
    "kkt_violation:x": (x, lambda a: kkt_violation(a, D, y, 0.1)),
    "kkt_violation:y": (y, lambda a: kkt_violation(x, D, a, 0.1)),
    "LinearSvm": (np.ones(4), lambda a: LinearSvm(weights=a, bias=0.0, c=1.0)),
    "svm_objective": (X, lambda a: svm_objective(SVM, a, LABELS)),
    "decision_score": (x, lambda a: decision_score(SVM, a)),
    "predict_event": (x, lambda a: predict_event(EM, a)),
    "train_event_models": (X, lambda a: train_event_models(a, EVENTS, 1.0)),
    "cross_validate": (X, lambda a: cross_validate(a, EVENTS, [1.0], folds=2)),
    "learn_dictionary": (X, lambda a: learn_dictionary(a, LEARN)),
    "fit_whitening": (X, lambda a: fit_whitening(a, 2)),
    "apply_whitening": (X, lambda a: apply_whitening(WHITEN, a)),
    "WhiteningTransform:mean": (WHITEN.mean, lambda a: replace(WHITEN, mean=a)),
    "WhiteningTransform:basis": (WHITEN.basis, lambda a: replace(WHITEN, basis=a)),
    "WhiteningTransform:scales": (WHITEN.scales, lambda a: replace(WHITEN, scales=a)),
    "pool_clip": (Y, lambda a: pool_clip([a], "c", "audio")),
    "PooledFeature": (y, lambda a: PooledFeature(a, "c", "audio")),
    "fit_gmm_em": (X, lambda a: fit_gmm_em(a, 2, max_iter=2)),
    "gmm_supervector": (X, lambda a: gmm_supervector(GMM, a)),
    "GaussianMixture:weights": (GMM.weights, lambda a: replace(GMM, weights=a)),
    "GaussianMixture:means": (GMM.means, lambda a: replace(GMM, means=a)),
    "GaussianMixture:variances": (GMM.variances, lambda a: replace(GMM, variances=a)),
    "FrameHistogram": (np.ones(8), lambda a: FrameHistogram(a, 0, 0.0)),
    "AudioClip": (np.zeros(64), lambda a: AudioClip(a, 22050)),
    "delta_coefficients": (X, lambda a: delta_coefficients(a)),
    "RankedList": (x, lambda a: RankedList(a, np.array([1, 0, 1, 0]), ("p", "q", "r", "s"))),
    "fuse_rows:audio": (X, lambda a: fuse_rows(a, Y)),
    "fuse_rows:video": (Y, lambda a: fuse_rows(X, a)),
    "learn_joint": (x, lambda a: learn_joint([(a, y), (X[1], Y[1]), (X[2], Y[2])], LEARN)),
    "encode_cross_modal": (x, lambda a: encode_cross_modal(a, D, 0.1)),
    "union_features:y_a": (x, lambda a: union_features(a, y)),
    "union_features:y_v": (y, lambda a: union_features(x, a)),
    "save_matrix": (X, lambda a: save_matrix(os.devnull, a)),
}


@pytest.mark.parametrize("fault", ["nan", "inf", "ndim"])
@pytest.mark.parametrize("name", sorted(CASES))
def test_bad_array_raises_input_error(name, fault):
    good, call = CASES[name]
    call(good)  # the unaltered array is accepted, so only the fault is tested
    bad = np.array(good, dtype=np.float64)
    if fault == "nan":
        bad.flat[0] = np.nan
    elif fault == "inf":
        bad.flat[0] = np.inf
    else:
        bad = bad[None]
    with pytest.raises(InputError):
        call(bad)


# name -> a call with labels that are not one +1 or -1 (or one event
# name) per feature row
BAD_LABELS = {
    "svm_objective:count": lambda: svm_objective(SVM, X, [1.0]),
    "svm_objective:value": lambda: svm_objective(SVM, X, [2.0] * 6),
    "svm_objective:text": lambda: svm_objective(SVM, X, ["a"] * 6),
    "train_event_models:count": lambda: train_event_models(X, EVENTS[:-1], 1.0),
    "cross_validate:count": lambda: cross_validate(X, EVENTS[:-1], [1.0], folds=2),
    "stratified_folds:empty": lambda: stratified_folds([], 2, 0),
}


@pytest.mark.parametrize("name", sorted(BAD_LABELS))
def test_bad_labels_raise_input_error(name):
    with pytest.raises(InputError):
        BAD_LABELS[name]()


# name -> (an accepted argument, one of the wrong type, a call that passes
# its argument in that slot)
WRONG_TYPES = {
    "lasso_encode_batch:d": (D, D.atoms, lambda v: lasso_encode_batch(X, v, CFG)),
    "lasso_encode_batch:cfg": (CFG, CFG.lam, lambda v: lasso_encode_batch(X, D, v)),
    "kkt_violation:d": (D, D.atoms, lambda v: kkt_violation(x, v, y, 0.1)),
    "JointDictionary:inner": (D, D.atoms, lambda v: JointDictionary(v, (2, 2))),
    "encode_cross_modal:d_split": (D, D.atoms, lambda v: encode_cross_modal(x, v, 0.1)),
    "tf_agc:clip": (AUDIO, AUDIO.samples, lambda v: tf_agc(v)),
    "mfcc_features:clip": (AUDIO, AUDIO.samples, lambda v: mfcc_features(v)),
    "mfcc_features:cfg": (MfccConfig(), (1024, 512, 40, 16), lambda v: mfcc_features(AUDIO, v)),
    "apply_whitening:w": (WHITEN, WHITEN.basis, lambda v: apply_whitening(v, X)),
    "decision_score:m": (SVM, SVM.weights, lambda v: decision_score(v, x)),
    "predict_event:em": (EM, EM.models, lambda v: predict_event(v, x)),
    "gmm_supervector:g": (GMM, GMM.means, lambda v: gmm_supervector(v, X)),
    "average_precision:r": (RANKED, RANKED.scores, lambda v: average_precision(v)),
}


@pytest.mark.parametrize("name", sorted(WRONG_TYPES))
def test_wrong_argument_type_raises_input_error(name):
    good, bad, call = WRONG_TYPES[name]
    call(good)  # the accepted argument passes, so only the type is tested
    with pytest.raises(InputError):
        call(bad)


IDS = ("p", "q", "r", "s")
FRAMES = [FrameHistogram(np.arange(8.0) ** i, i, i / 25.0) for i in range(4)]
CLIP = AudioClip(_rng.standard_normal(256), 22050)

# name -> (an accepted value, a call that passes its argument in that
# setting, a value outside the setting's documented range or None when
# every finite value is accepted). An int accepted value marks a count.
SETTINGS = {
    "SolverConfig:lam": (0.1, lambda v: SolverConfig(lam=v), -0.1),
    "SolverConfig:tol": (1e-8, lambda v: SolverConfig(0.1, tol=v), 0.0),
    "SolverConfig:max_iter": (10, lambda v: SolverConfig(0.1, max_iter=v), 0),
    "lasso_objective:lam": (0.1, lambda v: lasso_objective(x, D, y, v), -0.1),
    "kkt_violation:lam": (0.1, lambda v: kkt_violation(x, D, y, v), -0.1),
    "LinearSvm:bias": (0.0, lambda v: LinearSvm(np.ones(4), v, 1.0), None),
    "LinearSvm:c": (1.0, lambda v: LinearSvm(np.ones(4), 0.0, v), 0.0),
    "train_event_models:c": (1.0, lambda v: train_event_models(X, EVENTS, v), 0.0),
    "stratified_folds:folds": (2, lambda v: stratified_folds(EVENTS, v, 0), 1),
    "stratified_folds:seed": (0, lambda v: stratified_folds(EVENTS, 2, v), None),
    "cross_validate:folds": (2, lambda v: cross_validate(X, EVENTS, [1.0], folds=v), 1),
    "cross_validate:c_grid": (1.0, lambda v: cross_validate(X, EVENTS, [v], folds=2), 0.0),
    "LearnConfig:atom_count": (3, lambda v: replace(LEARN, atom_count=v), 0),
    "LearnConfig:lam": (0.1, lambda v: replace(LEARN, lam=v), -0.1),
    "LearnConfig:epochs": (1, lambda v: replace(LEARN, epochs=v), 0),
    "LearnConfig:seed": (0, lambda v: replace(LEARN, seed=v), None),
    "LearnConfig:objective_tol": (1e-6, lambda v: replace(LEARN, objective_tol=v), 0.0),
    "LearnConfig:solver_tol": (1e-8, lambda v: replace(LEARN, solver_tol=v), 0.0),
    "LearnConfig:solver_max_iter": (10, lambda v: replace(LEARN, solver_max_iter=v), 0),
    "WhiteningTransform:out_dim": (2, lambda v: replace(WHITEN, out_dim=v), 0),
    "WhiteningTransform:epsilon": (1e-5, lambda v: replace(WHITEN, epsilon=v), -1.0),
    "fit_whitening:d": (2, lambda v: fit_whitening(X, v), 0),
    "fit_whitening:eps": (1e-5, lambda v: fit_whitening(X, 2, eps=v), -1.0),
    "GaussianMixture:variance_floor": (
        GMM.variance_floor, lambda v: replace(GMM, variance_floor=v), 0.0),
    "fit_gmm_em:m": (2, lambda v: fit_gmm_em(X, v, max_iter=2), 0),
    "fit_gmm_em:max_iter": (2, lambda v: fit_gmm_em(X, 2, max_iter=v), 0),
    "fit_gmm_em:tol": (1e-6, lambda v: fit_gmm_em(X, 2, max_iter=2, tol=v), 0.0),
    "fit_gmm_em:floor_fraction": (
        1e-4, lambda v: fit_gmm_em(X, 2, max_iter=2, floor_fraction=v), -1.0),
    "fit_gmm_em:seed": (0, lambda v: fit_gmm_em(X, 2, seed=v, max_iter=2), None),
    "gmm_supervector:target_sparsity": (
        0.1, lambda v: gmm_supervector(GMM, X, target_sparsity=v), -1.0),
    "FrameHistogram:frame_index": (0, lambda v: FrameHistogram(np.ones(8), v, 0.0), -1),
    "FrameHistogram:timestamp_s": (0.0, lambda v: FrameHistogram(np.ones(8), 0, v), -1.0),
    "AudioClip:sample_rate_hz": (22050, lambda v: AudioClip(np.zeros(64), v), 0),
    "MfccConfig:window_len": (1024, lambda v: MfccConfig(window_len=v), 0),
    "MfccConfig:hop": (512, lambda v: MfccConfig(hop=v), 0),
    "MfccConfig:mel_filters": (40, lambda v: MfccConfig(mel_filters=v), 0),
    "MfccConfig:n_coeffs": (16, lambda v: MfccConfig(n_coeffs=v), 0),
    "detect_keyframes:alpha": (1.0, lambda v: detect_keyframes(FRAMES, alpha=v), None),
    "detect_keyframes:min_colors": (26, lambda v: detect_keyframes(FRAMES, min_colors=v), -1),
    "sample_context_frames:keyframe_ts": (1.0, lambda v: sample_context_frames(v, 25.0), None),
    "sample_context_frames:fps": (25.0, lambda v: sample_context_frames(1.0, v), 0.0),
    "sample_context_frames:count": (2, lambda v: sample_context_frames(1.0, 25.0, count=v), 0),
    "sample_context_frames:span_s": (
        1.0, lambda v: sample_context_frames(1.0, 25.0, span_s=v), -1.0),
    "tf_agc:n_bands": (8, lambda v: tf_agc(CLIP, n_bands=v), 0),
    "tf_agc:attack_s": (0.025, lambda v: tf_agc(CLIP, attack_s=v), 0.0),
    "tf_agc:release_s": (0.25, lambda v: tf_agc(CLIP, release_s=v), 0.0),
    "tf_agc:gain_floor": (1e-6, lambda v: tf_agc(CLIP, gain_floor=v), 0.0),
    "mel_filterbank:n_filters": (40, lambda v: mel_filterbank(v, 1024, 22050), 0),
    "mel_filterbank:n_fft": (1024, lambda v: mel_filterbank(40, v, 22050), 0),
    "mel_filterbank:sample_rate_hz": (22050, lambda v: mel_filterbank(40, 1024, v), 0),
    "delta_coefficients:window": (2, lambda v: delta_coefficients(X, window=v), 0),
    "RankedList:relevance": (1.0, lambda v: RankedList(x, [v, 0, 1, 0], IDS), 0.5),
    "ModalityPair:audio_dim": (2, lambda v: ModalityPair(v, 3), 0),
    "ModalityPair:video_dim": (3, lambda v: ModalityPair(2, v), 0),
    "JointDictionary:modality_dims": (
        1, lambda v: JointDictionary(Dictionary(np.eye(3)), (v, 3 - v)), 0),
    "encode_cross_modal:lambda2": (0.1, lambda v: encode_cross_modal(x, D, v), -0.1),
    "encode_cross_modal:tol": (1e-8, lambda v: encode_cross_modal(x, D, 0.1, tol=v), 0.0),
    "encode_cross_modal:max_iter": (
        10, lambda v: encode_cross_modal(x, D, 0.1, max_iter=v), 0),
    "lambda_joint_of:lambda2": (0.1, lambda v: lambda_joint_of(v, ModalityPair(2, 3)), -0.1),
}


def _bad_values(good, out_of_range):
    bad = {"nan": math.nan, "inf": math.inf}
    if out_of_range is not None:
        bad["range"] = out_of_range
    if isinstance(good, int):
        bad.update(fraction=good + 0.5, bool=True)
    return bad


BAD_SETTINGS = [
    pytest.param(name, value, id=f"{name}-{fault}")
    for name, (good, _, out_of_range) in sorted(SETTINGS.items())
    for fault, value in _bad_values(good, out_of_range).items()
] + [pytest.param("gmm_supervector:target_sparsity", None, id="gmm_supervector:target_sparsity-none")]


@pytest.mark.parametrize("name, value", BAD_SETTINGS)
def test_bad_setting_raises_input_error(name, value):
    good, call, _ = SETTINGS[name]
    call(good)  # the accepted value passes, so only the bad value is tested
    with pytest.raises(InputError):
        call(value)


# name -> (an accepted array, a call that stores it in a frozen dataclass,
# the field that holds it)
FIELDS = {
    "Dictionary": (D.atoms, lambda a: Dictionary(a), "atoms"),
    "SparseCode": (y, lambda a: SparseCode(a), "coeffs"),
    "LinearSvm": (np.ones(4), lambda a: LinearSvm(a, 0.0, 1.0), "weights"),
    "FrameHistogram": (np.ones(8), lambda a: FrameHistogram(a, 0, 0.0), "counts"),
    "AudioClip": (np.zeros(64), lambda a: AudioClip(a, 22050), "samples"),
    "GaussianMixture:weights": (GMM.weights, lambda a: replace(GMM, weights=a), "weights"),
    "GaussianMixture:means": (GMM.means, lambda a: replace(GMM, means=a), "means"),
    "GaussianMixture:variances": (GMM.variances, lambda a: replace(GMM, variances=a), "variances"),
    "WhiteningTransform:mean": (WHITEN.mean, lambda a: replace(WHITEN, mean=a), "mean"),
    "WhiteningTransform:basis": (WHITEN.basis, lambda a: replace(WHITEN, basis=a), "basis"),
    "WhiteningTransform:scales": (WHITEN.scales, lambda a: replace(WHITEN, scales=a), "scales"),
    "PooledFeature": (y, lambda a: PooledFeature(a, "c", "audio"), "values"),
    "RankedList:scores": (x, lambda a: RankedList(a, [1, 0, 1, 0], IDS), "scores"),
    "RankedList:relevance": (np.array([1, 0, 1, 0]), lambda a: RankedList(x, a, IDS), "relevance"),
}


@pytest.mark.parametrize("name", sorted(FIELDS))
def test_frozen_field_is_a_private_copy(name):
    good, build, field = FIELDS[name]
    base = np.array(good)  # the caller's array
    given = base[...]  # a view of it, passed in
    stored = getattr(build(given), field)
    kept = stored.copy()
    assert given.flags.writeable and base.flags.writeable
    assert not stored.flags.writeable
    given.flat[0] += 1
    base.flat[-1] += 1
    np.testing.assert_array_equal(stored, kept)
