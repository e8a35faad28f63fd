"""Every public entry point that takes a numeric array rejects a non-finite
value and a wrong number of dimensions with InputError."""

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
    svm_objective,
    train_event_models,
    train_svm,
)
from mmsparse.dictlearn import (
    LearnConfig,
    coding_objective,
    dictionary_update_step,
    init_dictionary,
    learn_dictionary,
    replace_dead_atoms,
)
from mmsparse.errors import InputError
from mmsparse.features import (
    PooledFeature,
    apply_whitening,
    fit_whitening,
    max_pool,
    pool_clip,
)
from mmsparse.gmm import fit_gmm_em, gmm_supervector, posteriors
from mmsparse.media import AudioClip, FrameHistogram, delta_coefficients, take_left_channel
from mmsparse.metrics import RankedList
from mmsparse.multimodal import (
    encode_cross_modal,
    fuse_input,
    fuse_rows,
    learn_joint,
    union_features,
)
from mmsparse.solvers import (
    Dictionary,
    SolverConfig,
    SparseCode,
    kkt_violation,
    lasso_encode,
    lasso_encode_batch,
    lasso_objective,
    omp_encode,
    reconstruction_error,
)
from mmsparse.storage import save_matrix

from helpers import unit_column_dictionary

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

# name -> (an accepted array, a call that passes its argument in that slot)
CASES = {
    "Dictionary": (D.atoms, lambda a: Dictionary(a)),
    "SparseCode": (y, lambda a: SparseCode(a)),
    "lasso_encode": (x, lambda a: lasso_encode(a, D, CFG)),
    "lasso_encode_batch": (X, lambda a: lasso_encode_batch(a, D, CFG)),
    "lasso_objective:x": (x, lambda a: lasso_objective(a, D, y, 0.1)),
    "lasso_objective:y": (y, lambda a: lasso_objective(x, D, a, 0.1)),
    "kkt_violation:x": (x, lambda a: kkt_violation(a, D, y, 0.1)),
    "kkt_violation:y": (y, lambda a: kkt_violation(x, D, a, 0.1)),
    "reconstruction_error:x": (x, lambda a: reconstruction_error(a, D, y)),
    "reconstruction_error:y": (y, lambda a: reconstruction_error(x, D, a)),
    "omp_encode": (x, lambda a: omp_encode(a, D, 2)),
    "LinearSvm": (np.ones(4), lambda a: LinearSvm(weights=a, bias=0.0, c=1.0)),
    "train_svm": (X, lambda a: train_svm(a, LABELS, 1.0)),
    "svm_objective": (X, lambda a: svm_objective(SVM, a, LABELS)),
    "decision_score": (x, lambda a: decision_score(SVM, a)),
    "predict_event": (x, lambda a: predict_event(EM, a)),
    "train_event_models": (X, lambda a: train_event_models(a, EVENTS, 1.0)),
    "cross_validate": (X, lambda a: cross_validate(a, EVENTS, [1.0], folds=2)),
    "init_dictionary": (X, lambda a: init_dictionary(a, 3, seed=0)),
    "learn_dictionary": (X, lambda a: learn_dictionary(a, LEARN)),
    "dictionary_update_step:examples": (X, lambda a: dictionary_update_step(a, Y, D)),
    "dictionary_update_step:codes": (Y, lambda a: dictionary_update_step(X, a, D)),
    "replace_dead_atoms:examples": (X, lambda a: replace_dead_atoms(D, np.zeros(3), a, 0, Y)),
    "replace_dead_atoms:codes": (Y, lambda a: replace_dead_atoms(D, np.zeros(3), X, 0, a)),
    "coding_objective:examples": (X, lambda a: coding_objective(a, D, Y, 0.1)),
    "coding_objective:codes": (Y, lambda a: coding_objective(X, D, a, 0.1)),
    "fit_whitening": (X, lambda a: fit_whitening(a, 2)),
    "apply_whitening": (X, lambda a: apply_whitening(WHITEN, a)),
    "WhiteningTransform:mean": (WHITEN.mean, lambda a: replace(WHITEN, mean=a)),
    "WhiteningTransform:basis": (WHITEN.basis, lambda a: replace(WHITEN, basis=a)),
    "WhiteningTransform:scales": (WHITEN.scales, lambda a: replace(WHITEN, scales=a)),
    "max_pool": (Y, lambda a: max_pool(a)),
    "pool_clip": (Y, lambda a: pool_clip([a], "c", "audio")),
    "PooledFeature": (y, lambda a: PooledFeature(a, "c", "audio")),
    "fit_gmm_em": (X, lambda a: fit_gmm_em(a, 2, max_iter=2)),
    "posteriors": (x, lambda a: posteriors(GMM, a)),
    "gmm_supervector": (X, lambda a: gmm_supervector(GMM, a)),
    "GaussianMixture:weights": (GMM.weights, lambda a: replace(GMM, weights=a)),
    "GaussianMixture:means": (GMM.means, lambda a: replace(GMM, means=a)),
    "GaussianMixture:variances": (GMM.variances, lambda a: replace(GMM, variances=a)),
    "FrameHistogram": (np.ones(8), lambda a: FrameHistogram(a, 0, 0.0)),
    "AudioClip": (np.zeros(64), lambda a: AudioClip(a, 22050)),
    "take_left_channel": (np.zeros(64), lambda a: take_left_channel(a, 22050, channels=1)),
    "delta_coefficients": (X, lambda a: delta_coefficients(a)),
    "RankedList": (x, lambda a: RankedList(a, np.array([1, 0, 1, 0]), ("p", "q", "r", "s"))),
    "fuse_input:x_a": (x, lambda a: fuse_input(a, y)),
    "fuse_input:x_v": (y, lambda a: fuse_input(x, a)),
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
