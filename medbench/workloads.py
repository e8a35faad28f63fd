"""The benchmark's workloads: what each one sets up and what it times.

train   the paper's whole experiment in each round: the system is trained
        on labelled clips (storage round trip, whitening, dictionaries,
        GMM, coding, joint-arm CV, SVMs), then held-out clips are
        classified one at a time and scored by mAP.
detect  set-up trains the system; each round streams unseen clips one at a
        time through the front end, coding, pooling and scoring. No
        training runs in the timed phase.
"""

import statistics
from dataclasses import dataclass
from typing import List, NamedTuple, Optional

import numpy as np

from corpus import make_split
from system import TRAIN_OPS, MedModel, arm_maps, clip_features, front_end, score, train_system


class Workload(NamedTuple):
    train_per_event: int  # labelled clips per event
    test_per_event: int  # held-out (train) or streamed (detect) clips per event


WORKLOADS = {
    "train": Workload(7, 10),
    "detect": Workload(6, 17),
}


@dataclass
class State:
    train: List
    test: List
    model: Optional[MedModel] = None


def _train(clips, stage_dir, tr, tally) -> Optional[MedModel]:
    """Front end of each labelled clip, then the training stages: one
    operation each. A failure fails the operations left with it, and the
    model is None."""
    n_ops = len(clips) + TRAIN_OPS
    tally.attempted += n_ops
    done = [0]

    def mark():
        done[0] += 1

    try:
        rows = []
        for clip in clips:
            rows.append(front_end(clip, tr, tally))
            mark()
        return train_system(rows, stage_dir, tr, tally, mark)
    except Exception:
        tally.fail(n_ops - done[0])
        return None


def setup(name: str, seed: int, stage_dir: str, tr, tally) -> State:
    """Make the corpus; for detect, also train the whole system on it."""
    wl = WORKLOADS[name]
    state = State(make_split(seed, "train", wl.train_per_event),
                  make_split(seed, "test", wl.test_per_event))
    if name == "detect":
        state.model = _train(state.train, stage_dir, tr, tally)
    return state


def _stream(clips, m: Optional[MedModel], tr, tally, res) -> None:
    """Classify clips one at a time (front end, coding, pooling, scores),
    then take the pass's mAP. Each clip is one operation, the mAP one more;
    without a model (its training failed) each of them fails."""
    tally.attempted += len(clips) + 1
    per_clip = []
    for clip in clips:
        c0, t0 = tally.check_s, tally.clock()
        try:
            with tr.span("clip"):
                rows = front_end(clip, tr, tally)
                scores = score(clip_features([rows], m, tr, tally), m, tr)
        except Exception:
            tally.fail()
            continue
        res.clip_s.append(tally.clock() - t0 - (tally.check_s - c0))
        per_clip.append((clip, scores))
    try:
        merged = {arm: np.vstack([s[arm] for _, s in per_clip]) for arm in per_clip[0][1]}
        res.maps = arm_maps(merged, [c.event for c, _ in per_clip],
                            [c.clip_id for c, _ in per_clip], m, tr, tally)
        res.accuracy = m.cv_accuracy
    except Exception:
        tally.fail()


def measure(name: str, state: State, seconds: float, min_rounds: int, stage_dir,
            tr, tally, res) -> None:
    """Whole rounds until the next one would end past `seconds` (and at
    least `min_rounds`); each round's wall time leaves out its checks."""
    res.clips = len(state.test) + (len(state.train) if name == "train" else 0)
    start = tally.clock()
    while True:
        c0, r0 = tally.check_s, tally.clock()
        with tr.span("round"):
            if name == "detect":
                _stream(state.test, state.model, tr, tally, res)
            else:
                _stream(state.test, _train(state.train, stage_dir, tr, tally), tr, tally, res)
        res.rounds.append(tally.clock() - r0 - (tally.check_s - c0))
        elapsed = tally.clock() - start
        if len(res.rounds) >= min_rounds and elapsed + statistics.median(res.rounds) > seconds:
            return
