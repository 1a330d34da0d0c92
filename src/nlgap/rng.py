"""Deterministic randomness: one 64-bit master seed, split per task.

Every random procedure in the package takes an explicit seed and derives
its own counter-based stream; nothing touches a global RNG.  Streams for
distinct (seed, path) labels are statistically independent, and a fixed
label always reproduces the same stream, which is what makes whole
experiments replayable from a single integer.
"""
from __future__ import annotations

import numpy as np


def derive_rng(seed: int, *path) -> np.random.Generator:
    """Counter-based (Philox) generator for the stream named by (seed, *path).

    The labels are ints and strs.  The entropy is the byte length, then the
    32-bit words, of the repr of the label tuple, which quotes strings and
    signs negative ints and which ast.literal_eval inverts: distinct label
    tuples give distinct entropy, never one the zero padding of another.
    """
    labels = []
    for x in (seed, *path):
        if isinstance(x, (int, np.integer)):
            labels.append(int(x))
        elif isinstance(x, str):
            labels.append(str(x))  # np.str_ has its own repr
        else:
            raise TypeError(f"stream labels are ints or strs, got {x!r}")
    data = repr(tuple(labels)).encode("utf-8")
    words = np.frombuffer(data + bytes(-len(data) % 4), dtype="<u4").tolist()
    ss = np.random.SeedSequence([len(data), *words])
    return np.random.Generator(np.random.Philox(ss))
