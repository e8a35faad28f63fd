"""Seed plumbing: every random draw in the package flows from one 64-bit
seed through tagged numpy SeedSequences, never through the global RNG."""

import hashlib

import numpy as np

from .errors import _check_count

_MASK64 = (1 << 64) - 1


def _tag_entropy(tag) -> int:
    if isinstance(tag, (int, np.integer)):
        return int(tag) & _MASK64
    digest = hashlib.sha256(str(tag).encode("utf-8")).digest()
    return int.from_bytes(digest[:8], "little")


def seed_sequence(seed: int, *tags) -> np.random.SeedSequence:
    """Derive a child SeedSequence from a root seed and a path of tags.

    Distinct tag paths give statistically independent streams; identical
    (seed, tags) always give the identical stream.
    """
    _check_count(seed, "seed", ge=None)
    entropy = [int(seed) & _MASK64] + [_tag_entropy(t) for t in tags]
    return np.random.SeedSequence(entropy)


def make_rng(seed: int, *tags) -> np.random.Generator:
    """Deterministic generator for the given seed and tag path."""
    return np.random.Generator(np.random.PCG64(seed_sequence(seed, *tags)))
