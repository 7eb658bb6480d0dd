"""Counter-based random streams, one per chunk of paths and kind of draw.

Paths are simulated in chunks of hawkes._CHUNK paths; chunk c covers paths
c * _CHUNK onward.  Each kind of random number a chunk needs comes from its
own Philox stream (Salmon et al., "Parallel random numbers: as easy as 1,
2, 3", SC'11), path_rng(seed, stream_index(c, kind, j)), and is drawn
path by path in order: in one call for the whole chunk, or for the stage
normals in consecutive calls over tiles of paths, which continue the
stream and so draw the same numbers.  So a path's numbers depend on the
seed and on the paths of its chunk up to itself only: a run of n paths is
a prefix of a run of 2n, and the thread count changes nothing.  The kinds
are the two unit exponentials of each path's next event (one stream each
per event iteration j, see hawkes), the marks, the stage normals and the
event normals.
"""

from __future__ import annotations

import numpy as np

_MASK64 = (1 << 64) - 1

EXCESS_EXPONENTIALS, BASE_EXPONENTIALS, MARKS, STAGE_NORMALS, EVENT_NORMALS = range(5)


def path_rng(seed: int, index: int) -> np.random.Generator:
    """Generator of stream `index` of the run keyed by `seed`."""
    key = ((int(seed) & _MASK64) << 64) | (int(index) & _MASK64)
    return np.random.Generator(np.random.Philox(key=key))


def stream_index(chunk: int, kind: int, j: int = 0) -> int:
    """Stream of one kind of draw of a chunk: (chunk << 32) | (kind << 24) |
    j, j counting the event iterations (below 2**24)."""
    return (chunk << 32) | (kind << 24) | j


def derive_seed(seed: int, tag: str) -> int:
    """Stable 64-bit sub-seed for a named purpose (retries, cross-checks)."""
    h = np.uint64(seed & _MASK64)
    for ch in tag:
        h = np.uint64((int(h) * 1099511628211 + ord(ch)) & _MASK64)
    return int(h)
