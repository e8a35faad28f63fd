"""Retrieval metric: per-event average precision (AP).

Average precision is the non-interpolated variant: items are ranked by
score descending (ties broken by clip id ascending, so results are
deterministic) and AP averages precision-at-k over the relevant ranks,
with AP defined as 0 when nothing is relevant.
"""

from dataclasses import dataclass

import numpy as np

from .errors import InputError, _as_finite, _check_type, _freeze

__all__ = [
    "RankedList",
    "average_precision",
]


@dataclass(frozen=True)
class RankedList:
    """Per-clip scores and binary relevance for one event."""

    scores: np.ndarray
    relevance: np.ndarray
    clip_ids: tuple

    def __post_init__(self):
        scores = _as_finite(self.scores, 1, name="scores", nonempty=1)
        relevance = np.asarray(self.relevance)
        ids = tuple(str(c) for c in self.clip_ids)
        if relevance.shape != scores.shape or len(ids) != scores.size:
            raise InputError("scores, relevance, and clip ids must align")
        if not np.all((relevance == 0) | (relevance == 1)):
            raise InputError("relevance must be binary")
        _freeze(self, "scores", scores)
        _freeze(self, "relevance", relevance.astype(np.int64))
        object.__setattr__(self, "clip_ids", ids)


def average_precision(r: RankedList) -> float:
    """Non-interpolated AP of one ranked list, in [0, 1]."""
    _check_type(r, RankedList, "r")
    total_relevant = int(r.relevance.sum())
    if total_relevant == 0:
        return 0.0
    relevant = r.relevance[np.lexsort((np.asarray(r.clip_ids), -r.scores))] == 1
    ranks = np.flatnonzero(relevant) + 1
    return float(np.sum(np.arange(1, total_relevant + 1) / ranks) / total_relevant)

