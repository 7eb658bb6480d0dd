"""Counter-based per-path random streams.

Every simulated path owns an independent Philox stream keyed by
(seed, path_index), so results are reproducible for a fixed seed and
independent of how paths are distributed over threads.  A Philox stream
is its key plus a counter (Salmon et al., "Parallel random numbers: as
easy as 1, 2, 3", SC'11), so one generator serves a whole chunk of paths:
PathStreams re-keys it to the start of any path's stream, at the cost of
a state write instead of a generator build (whose constructor first reads
OS entropy for a seed sequence that the key then overrides).
"""

from __future__ import annotations

import numpy as np

_MASK64 = (1 << 64) - 1


def path_rng(seed: int, index: int) -> np.random.Generator:
    """Generator for path `index` of the run keyed by `seed`."""
    key = ((int(seed) & _MASK64) << 64) | (int(index) & _MASK64)
    return np.random.Generator(np.random.Philox(key=key))


class PathStreams:
    """The path streams of one run through one generator.

    Built from a fresh path_rng(seed, i) of the run; enter(j) puts that
    generator at the start of path j's stream (counter 0, key (j, seed),
    no buffered output), where path_rng(seed, j) would start.  numpy's
    Generator keeps no cached values of its own, so the draws that follow
    are those of path_rng(seed, j).  Not shared between threads.
    """

    def __init__(self, rng: np.random.Generator):
        self.rng = rng
        self._start = rng.bit_generator.state
        self._key = self._start["state"]["key"]  # (index, seed) words

    def enter(self, index: int) -> np.random.Generator:
        self._key[0] = int(index) & _MASK64
        self.rng.bit_generator.state = self._start
        return self.rng


def derive_seed(seed: int, tag: str) -> int:
    """Stable 64-bit sub-seed for a named purpose (retries, cross-checks)."""
    h = np.uint64(seed & _MASK64)
    for ch in tag:
        h = np.uint64((int(h) * 1099511628211 + ord(ch)) & _MASK64)
    return int(h)
