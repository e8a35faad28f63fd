"""The paper's MED system, composed from mmsparse's public functions.

Audio goes through tf-AGC and MFCC, video through keyframe detection and
context-frame sampling. Both are PCA-whitened and sparse-coded against
unimodal, joint or cross-modal dictionaries, then max-pooled per clip. A
GMM-supervector baseline runs beside them on the audio frames. Each arm
gets 1-vs-all linear SVMs and is judged by held-out mAP; the joint arm's
SVM cost is picked by cross-validation.

Every call into a layer sits inside a span named after that layer, and
every output the method constrains goes through a check in `checks`.
"""

import os
import sys
import traceback
from dataclasses import dataclass
from typing import Dict, List, Sequence, Tuple

import numpy as np

from mmsparse.classify import cross_validate, decision_score, train_event_models
from mmsparse.dictlearn import LearnConfig, learn_dictionary
from mmsparse.features import apply_whitening, fit_whitening, pool_clip
from mmsparse.gmm import fit_gmm_em, gmm_supervector
from mmsparse.media import (
    MfccConfig,
    detect_keyframes,
    mfcc_features,
    sample_context_frames,
    tf_agc,
)
from mmsparse.metrics import RankedList, average_precision
from mmsparse.multimodal import (
    ModalityPair,
    encode_cross_modal,
    fuse_rows,
    lambda_joint_of,
    learn_joint,
    split_joint,
    union_features,
)
from mmsparse.solvers import SolverConfig, lasso_encode_batch
from mmsparse.storage import load_matrix, save_matrix

import checks
from corpus import SAMPLE_RATE_HZ, Clip

ARMS = ("audio", "video", "joint", "union", "cross_audio", "cross_video", "gmm")
# PooledFeature modality tag per coded arm (features.MODALITY_TAGS)
_TAGS = {
    "audio": "audio",
    "video": "video",
    "joint": "joint",
    "cross_audio": "cross-audio",
    "cross_video": "cross-video",
}


# Sizes and weights of the MED system
AUDIO_DIM = 12  # whitened MFCC directions
VIDEO_DIM = 8  # whitened video directions
ATOMS = 32  # atoms of each dictionary: audio, video and joint
LAM = 3.0  # per-modality l1 weight
LAM_JOINT = lambda_joint_of(LAM, ModalityPair(AUDIO_DIM, VIDEO_DIM))
EPOCHS = 20
SOLVER_TOL = 1e-8
SOLVER_MAX_ITER = 1000
GMM_COMPONENTS = 16
EM_ITERS = 15
C_GRID = (0.1, 1.0, 10.0)
C_FIXED = 1.0  # SVM cost of every arm but the cross-validated joint arm
FOLDS = 3
CONTEXT_FRAMES = 2
MODEL_SEED = 0  # seed of dictionary, GMM, CV and SVM initialisation

SOLVER = SolverConfig(lam=LAM, tol=SOLVER_TOL, max_iter=SOLVER_MAX_ITER)
SOLVER_JOINT = SolverConfig(lam=LAM_JOINT, tol=SOLVER_TOL, max_iter=SOLVER_MAX_ITER)


def _learn_config(lam: float) -> LearnConfig:
    # objective_tol far below any real change: every epoch runs, so the
    # work of a round does not depend on when the objective settles
    return LearnConfig(
        atom_count=ATOMS, lam=lam, epochs=EPOCHS, seed=MODEL_SEED,
        objective_tol=1e-300, solver_tol=SOLVER_TOL, solver_max_iter=SOLVER_MAX_ITER,
    )


class Tally:
    """Operations attempted and failed, and the seconds spent in checks
    (which timed phases leave out)."""

    def __init__(self, clock):
        self.clock = clock
        self.attempted = 0
        self.failed = 0
        self.check_s = 0.0
        self.check_failures: List[str] = []

    def fail(self, n: int = 1) -> None:
        """Counts `n` failed operations and, for the first few failures,
        prints the traceback of the exception being handled."""
        if self.failed < 5:
            traceback.print_exc(file=sys.stderr)
        self.failed += n

    def check(self, fn, *args) -> None:
        start = self.clock()
        try:
            fn(*args)
        except checks.CheckFailed as exc:
            self.check_failures.append(f"{fn.__name__}: {exc}")
            raise
        finally:
            self.check_s += self.clock() - start


@dataclass
class ClipRows:
    """Low-level rows of one clip: MFCC frames, video descriptors at the
    context frames of each keyframe, and the MFCC frame paired with each
    context frame."""

    clip_id: str
    event: str
    audio: np.ndarray
    video: np.ndarray
    paired: np.ndarray
    groups: List[int]  # context frames per keyframe, in order


def front_end(clip: Clip, tr, tally: Tally) -> ClipRows:
    with tr.span("media.agc"):
        agc = tf_agc(clip.audio_clip())
    with tr.span("media.mfcc"):
        mfcc = mfcc_features(agc)
    with tr.span("media.keyframes"):
        keyframes = detect_keyframes(clip.frames)
        times = [
            sample_context_frames(
                clip.frames[k].timestamp_s, clip.fps, count=CONTEXT_FRAMES,
                span_s=(CONTEXT_FRAMES - 1) / clip.fps,
            )
            for k in keyframes
        ]
    tr.count("media.audio_seconds", agc.duration_s)
    tally.check(checks.cuts_found, keyframes, clip.cuts)

    flat = np.asarray([t for group in times for t in group])
    frame_idx = np.clip(np.round(flat * clip.fps).astype(int), 0, len(clip.frames) - 1)
    mcfg = MfccConfig()
    centre_idx = np.round((flat * SAMPLE_RATE_HZ - mcfg.window_len / 2) / mcfg.hop).astype(int)
    centre_idx = np.clip(centre_idx, 0, mfcc.shape[0] - 1)
    return ClipRows(
        clip_id=clip.clip_id,
        event=clip.event,
        audio=mfcc,
        video=clip.video[frame_idx],
        paired=mfcc[centre_idx],
        groups=[len(g) for g in times],
    )


@dataclass
class MedModel:
    w_audio: object
    w_video: object
    d_audio: object
    d_video: object
    joint: object
    split_audio: object
    split_video: object
    gmm: object
    models: Dict[str, object]
    cv_accuracy: float


def _split(matrix: np.ndarray, sizes: Sequence[int]) -> List[np.ndarray]:
    return np.split(matrix, np.cumsum(sizes)[:-1])


def _encode_batch(X, dictionary, scfg, tr, tally):
    with tr.span("solvers.encode"):
        codes, converged = lasso_encode_batch(X, dictionary, scfg)
    tr.count("solvers.rows", X.shape[0])
    tr.count("solvers.converged", int(converged.sum()))
    tally.check(checks.kkt, X, dictionary.atoms, codes, converged, scfg.lam, scfg.tol)
    return codes


def _encode_cross(X, dictionary, tr, tally):
    with tr.span("multimodal.cross_encode"):
        codes = [
            encode_cross_modal(x, dictionary, LAM, tol=SOLVER_TOL, max_iter=SOLVER_MAX_ITER)
            for x in X
        ]
    Y = np.asarray([c.coeffs for c in codes]).reshape(len(codes), dictionary.atom_count)
    converged = np.asarray([c.converged for c in codes], dtype=bool)
    tr.count("multimodal.cross_rows", len(codes))
    tr.count("multimodal.cross_converged", int(converged.sum()))
    tally.check(checks.kkt, X, dictionary.atoms, Y, converged, LAM, SOLVER_TOL)
    return Y


def _pool(codes_per_clip, groups_per_clip, rows: List[ClipRows], arm, tr, tally):
    """Two-stage max pool of each clip's codes: per keyframe group, then
    across groups (one group per clip when `groups_per_clip` is None)."""
    out = []
    for i, (codes, r) in enumerate(zip(codes_per_clip, rows)):
        sizes = [codes.shape[0]] if groups_per_clip is None else groups_per_clip[i]
        with tr.span("features.pool"):
            pooled = pool_clip(_split(codes, sizes), r.clip_id, _TAGS[arm])
        tr.count("features.pooled_clips")
        tally.check(checks.pooled, pooled.values, codes)
        out.append(pooled.values)
    return np.asarray(out)


def clip_features(rows: List[ClipRows], m: MedModel, tr, tally,
                  whitened=None) -> Dict[str, np.ndarray]:
    """Pooled clip features of every arm, one row per clip. All clips are
    coded in one batch per arm; `whitened` passes rows already whitened."""
    a_sizes = [r.audio.shape[0] for r in rows]
    v_sizes = [r.video.shape[0] for r in rows]
    groups = [r.groups for r in rows]
    if whitened is None:
        with tr.span("features.whiten"):
            Aw = apply_whitening(m.w_audio, np.vstack([r.audio for r in rows]))
            Vw = apply_whitening(m.w_video, np.vstack([r.video for r in rows]))
            Pw = apply_whitening(m.w_audio, np.vstack([r.paired for r in rows]))
    else:
        Aw, Vw, Pw = whitened
    with tr.span("multimodal.fuse"):
        Fw = fuse_rows(Pw, Vw)

    codes = {
        "audio": _encode_batch(Aw, m.d_audio, SOLVER, tr, tally),
        "video": _encode_batch(Vw, m.d_video, SOLVER, tr, tally),
        "joint": _encode_batch(Fw, m.joint.inner, SOLVER_JOINT, tr, tally),
        "cross_audio": _encode_cross(Aw, m.split_audio, tr, tally),
        "cross_video": _encode_cross(Vw, m.split_video, tr, tally),
    }
    feats = {}
    for arm, Y in codes.items():
        sizes = a_sizes if arm in ("audio", "cross_audio") else v_sizes
        per_keyframe = None if arm in ("audio", "cross_audio") else groups
        feats[arm] = _pool(_split(Y, sizes), per_keyframe, rows, arm, tr, tally)
    with tr.span("multimodal.union"):
        feats["union"] = np.asarray(
            [union_features(a, v) for a, v in zip(feats["audio"], feats["video"])]
        )
    supervectors = []
    for r, X in zip(rows, _split(Aw, a_sizes)):
        # tagged "audio": features.MODALITY_TAGS has no tag for the GMM arm
        with tr.span("gmm.supervector"):
            sv = gmm_supervector(m.gmm, X, r.clip_id, "audio")
        supervectors.append(sv.values)
    feats["gmm"] = np.asarray(supervectors)
    return feats


def stage(rows: List[ClipRows], stage_dir: str, tr, tally) -> Tuple[np.ndarray, ...]:
    """Write the training rows through `storage` and read them back."""
    mats = (
        np.vstack([r.audio for r in rows]),
        np.vstack([r.video for r in rows]),
        np.vstack([r.paired for r in rows]),
    )
    out = []
    for name, M in zip(("audio", "video", "paired"), mats):
        path = os.path.join(stage_dir, f"{name}.scmx")
        with tr.span("storage.write"):
            save_matrix(path, M)
        tr.count("storage.bytes", os.path.getsize(path))
        with tr.span("storage.read"):
            loaded = load_matrix(path)
        tally.check(checks.float32_roundtrip, loaded, M)
        out.append(loaded)
    return tuple(out)


def train_system(rows: List[ClipRows], stage_dir: str, tr, tally: Tally, done) -> MedModel:
    """Fit whitening, dictionaries, the GMM and every arm's SVMs on the
    training clips. Calls `done()` after each of its TRAIN_OPS operations."""
    labels = [r.event for r in rows]
    A, V, P = stage(rows, stage_dir, tr, tally)
    done()

    with tr.span("features.whiten"):
        w_audio = fit_whitening(A, AUDIO_DIM)
        w_video = fit_whitening(V, VIDEO_DIM)
        Aw = apply_whitening(w_audio, A)
        Vw = apply_whitening(w_video, V)
        Pw = apply_whitening(w_audio, P)
    tally.check(checks.whitened_identity, Aw)
    tally.check(checks.whitened_identity, Vw)
    done()

    learned = []
    for X in (Aw, Vw):
        with tr.span("dictlearn.learn"):
            d, stats = learn_dictionary(X, _learn_config(LAM))
        learned.append((d, stats))
        done()
    with tr.span("multimodal.joint_learn"):
        joint, jstats = learn_joint(zip(Pw, Vw), _learn_config(LAM_JOINT))
    learned.append((joint.inner, jstats))
    for d, stats in learned:
        tr.count("dictlearn.epochs", len(stats.objective_per_epoch))
        tr.count("dictlearn.atoms_replaced", stats.atoms_replaced)
        tally.check(checks.dictionary, stats.objective_per_epoch, d.atoms)
    with tr.span("multimodal.split"):
        split_audio, split_video = split_joint(joint)
    done()

    with tr.span("gmm.fit"):
        g, em = fit_gmm_em(Aw, GMM_COMPONENTS, seed=MODEL_SEED, max_iter=EM_ITERS, tol=1e-300)
    tr.count("gmm.em_iters", len(em.log_likelihood_per_iter))
    tally.check(checks.em, em.log_likelihood_per_iter, em.reseeds)
    done()

    m = MedModel(w_audio, w_video, learned[0][0], learned[1][0], joint,
                 split_audio, split_video, g, {}, 0.0)
    feats = clip_features(rows, m, tr, tally, whitened=(Aw, Vw, Pw))
    done()

    with tr.span("classify.cv"):
        cv = cross_validate(feats["joint"], labels, C_GRID, folds=FOLDS, seed=MODEL_SEED)
    n_events = len(set(labels))
    tr.count("classify.svm_fits", len(C_GRID) * cv.folds_used * n_events)
    m.cv_accuracy = cv.mean_accuracy[cv.best_c]
    done()

    for arm in ARMS:
        c = cv.best_c if arm == "joint" else C_FIXED
        with tr.span("classify.fit"):
            m.models[arm] = train_event_models(feats[arm], labels, c, seed=MODEL_SEED)
        tr.count("classify.svm_fits", n_events)
        done()
    return m


TRAIN_OPS = 8 + len(ARMS)  # operations train_system reports through done()


def score(feats: Dict[str, np.ndarray], m: MedModel, tr) -> Dict[str, np.ndarray]:
    """Decision scores per arm: (clips, events), events in model order."""
    out = {}
    for arm in ARMS:
        em = m.models[arm]
        with tr.span("classify.score"):
            out[arm] = np.asarray(
                [[decision_score(svm, f) for svm in em.models] for f in feats[arm]]
            )
    return out


def arm_maps(scores: Dict[str, np.ndarray], events: Sequence[str], clip_ids: Sequence[str],
             m: MedModel, tr, tally: Tally) -> Dict[str, float]:
    """Held-out mAP per arm, each AP checked against an independent
    computation and each mAP against the chance level of random ranking."""
    maps = {}
    for arm in ARMS:
        event_ids = m.models[arm].event_ids
        aps = []
        chance = []
        for e, event in enumerate(event_ids):
            relevance = np.asarray([ev == event for ev in events], dtype=np.int64)
            ranked = RankedList(scores[arm][:, e], relevance, tuple(clip_ids))
            with tr.span("metrics.ap"):
                ap = average_precision(ranked)
            tally.check(checks.ap_matches, ap, scores[arm][:, e], relevance, clip_ids)
            aps.append(ap)
            chance.append(checks.chance_ap(len(events), int(relevance.sum())))
        maps[arm] = float(np.mean(aps))
        tally.check(checks.above_chance, arm, maps[arm], float(np.mean(chance)))
    return maps
