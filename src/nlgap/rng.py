"""Deterministic randomness: one 64-bit master seed, split per task.

Every random procedure in the package takes an explicit seed and derives
its own counter-based stream; nothing touches a global RNG.  Streams for
distinct (seed, path) labels are statistically independent, and a fixed
label always reproduces the same stream, which is what makes whole
experiments replayable from a single integer.
"""
from __future__ import annotations

import zlib

import numpy as np

_MASK64 = (1 << 64) - 1


def _token(part) -> int:
    if isinstance(part, (int, np.integer)):
        return int(part) & _MASK64
    return zlib.crc32(str(part).encode("utf-8"))


def derive_rng(seed: int, *path) -> np.random.Generator:
    """Counter-based (Philox) generator for the stream named by (seed, *path)."""
    entropy = [int(seed) & _MASK64] + [_token(p) for p in path]
    ss = np.random.SeedSequence(entropy)
    return np.random.Generator(np.random.Philox(ss))

