"""Deterministic random streams.

Every random draw in the simulator comes from a named stream so that runs
are reproducible bit-for-bit from ``(seed, stream name)`` alone.  Streams
are backed by the Philox-4x64-10 counter-based generator as implemented by
``numpy.random.Philox``: the 128-bit key is ``(seed, first 8 bytes of
SHA-256(stream name), little-endian)``.  Distribution sampling on top of
the raw counter stream (uniform doubles, ziggurat normals) follows
``numpy.random.Generator``.  The module imports both classes by name, so
importing it loads ``numpy.random``, which numpy would otherwise load at the
first ``np.random`` access: inside the first run's raising ``np.errstate``.
"""

from __future__ import annotations

import hashlib

import numpy as np
from numpy.random import Generator, Philox


def stream_word(name: str) -> int:
    """Map a stream name to a stable 64-bit key word."""
    digest = hashlib.sha256(name.encode("utf-8")).digest()
    return int.from_bytes(digest[:8], "little")


def stream(seed: int, name: str) -> Generator:
    """Return the generator for stream ``name`` under ``seed``.

    Distinct names yield statistically independent streams; the same
    (seed, name) pair always yields the identical sequence.
    """
    if not 0 <= int(seed) < 2**64:
        raise ValueError(f"seed must fit in u64, got {seed}")
    key = np.array([int(seed), stream_word(name)], dtype=np.uint64)
    return Generator(Philox(key=key))
