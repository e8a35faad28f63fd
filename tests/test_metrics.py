"""Metric definitions, including brute-force AP verification."""

import itertools

import numpy as np
import pytest

from mmsparse.metrics import RankedList, average_precision


def ranked(scores, relevance, ids=None):
    ids = ids if ids is not None else [f"c{i}" for i in range(len(scores))]
    return RankedList(np.asarray(scores, float), np.asarray(relevance), tuple(ids))


def ap_by_definition(relevance_in_rank_order):
    """AP straight from the definition for an already-ranked list."""
    rel = list(relevance_in_rank_order)
    total = sum(rel)
    if total == 0:
        return 0.0
    hits = 0
    acc = 0.0
    for k, r in enumerate(rel, start=1):
        if r:
            hits += 1
            acc += hits / k
    return acc / total


class TestAveragePrecision:
    def test_perfect_ranking(self):
        r = ranked([5.0, 4.0, 1.0, 0.5], [1, 1, 0, 0])
        assert average_precision(r) == pytest.approx(1.0)

    def test_hand_case_one_zero_one(self):
        r = ranked([3.0, 2.0, 1.0], [1, 0, 1])
        assert average_precision(r) == pytest.approx(5.0 / 6.0)

    def test_no_relevant_items(self):
        r = ranked([3.0, 2.0], [0, 0])
        assert average_precision(r) == 0.0

    def test_matches_brute_force_enumeration(self):
        # every relevance pattern and every ranking of up to 6 items
        for n in range(1, 7):
            scores = np.arange(n, 0, -1, dtype=float)  # ids rank in order
            for pattern in itertools.product([0, 1], repeat=n):
                r = ranked(scores, pattern)
                assert average_precision(r) == pytest.approx(
                    ap_by_definition(pattern), abs=1e-12
                )

    def test_monotone_score_transform_invariance(self):
        rng = np.random.default_rng(0)
        for _ in range(20):
            n = int(rng.integers(2, 10))
            scores = rng.standard_normal(n)
            rel = rng.integers(0, 2, size=n)
            a = average_precision(ranked(scores, rel))
            b = average_precision(ranked(np.exp(3.0 * scores), rel))
            assert a == pytest.approx(b, abs=1e-12)

    def test_all_relevant_any_order_is_one(self):
        rng = np.random.default_rng(1)
        scores = rng.standard_normal(8)
        assert average_precision(ranked(scores, np.ones(8, dtype=int))) == pytest.approx(1.0)

    def test_tie_broken_by_clip_id(self):
        # equal scores: item with smaller id ranks first
        r1 = ranked([1.0, 1.0], [1, 0], ids=["a", "b"])
        r2 = ranked([1.0, 1.0], [0, 1], ids=["a", "b"])
        assert average_precision(r1) == pytest.approx(1.0)
        assert average_precision(r2) == pytest.approx(0.5)
