"""Speed scaling: a fixed reference computation that tracks machine drift.

On a shared 2-vCPU machine the same work runs faster or slower from one
second to the next, so raw wall times spread by ~30% between identical
runs.  Between segments of measured work, the benchmark times a fixed
reference computation that contains no program code, and scales every
timed quantity of a segment by ``NOMINAL / reference``: a scaled second
is a second on a machine where the reference takes its nominal time.

Each sample times two slices separately, and each kind of segment is
scaled by the slice that resembles its work (see measure.py and
README.md, "Speed scaling"):

* ``dictset`` -- a dict/set loop over pseudo-random ints plus one
  ``np.sort`` of a fixed float array: interpreter dispatch, hashing and
  small-object allocation, like the clustering and bounding code.
* ``bfs`` -- a breadth-first search over a fixed adjacency list plus one
  ``np.lexsort`` of fixed keys: pointer chasing through lists and a
  multi-key sort, like the WPG re-rank and the cluster-tree patch.

Samples are timed in thread CPU time with the cyclic GC paused, so
neither another thread of this process nor a collection of the
program's heap can land inside a sample.  Each slice runs twice per
sample and the faster repetition counts: a brief disturbance of one
repetition (a burst on the other vCPU, a cold cache after a large
program step) does not pass into the segment's factor.
"""

from __future__ import annotations

import gc
import time
from collections import deque

import numpy as np

#: Nominal thread-CPU seconds of one repetition of each slice ("1.0x").
NOMINAL = {"dictset": 0.010, "bfs": 0.0075, "sum": 0.0175}

_SORT_INPUT = np.random.default_rng(20090401).random(300_000)
_LEX_KEYS = tuple(
    np.random.default_rng(20090402 + i).integers(0, 1 << 20, 15_000)
    for i in range(3)
)


def _grid_adjacency(side: int) -> list[list[int]]:
    adjacency: list[list[int]] = [[] for _ in range(side * side)]
    for row in range(side):
        for col in range(side):
            node = row * side + col
            for d_row, d_col in ((0, 1), (1, 0), (1, 1)):
                r, c = row + d_row, col + d_col
                if r < side and c < side:
                    other = r * side + c
                    adjacency[node].append(other)
                    adjacency[other].append(node)
    return adjacency


_ADJACENCY = _grid_adjacency(64)


def _dictset() -> int:
    counts: dict[int, int] = {}
    seen: set[int] = set()
    x = 12345
    for i in range(12_000):
        x = (x * 1103515245 + 12345) & 0x7FFFFFFF
        key = x % 4099
        counts[key] = counts.get(key, 0) + i
        if key & 1:
            seen.add(key)
        else:
            seen.discard(key ^ 1)
    ordered = np.sort(_SORT_INPUT)
    return len(counts) + len(seen) + int(ordered[0] >= 0.0)


def _bfs() -> int:
    adjacency = _ADJACENCY
    reached = 0
    for source in (0, len(adjacency) // 2):
        depth = [-1] * len(adjacency)
        depth[source] = 0
        queue = deque([source])
        while queue:
            node = queue.popleft()
            next_depth = depth[node] + 1
            for other in adjacency[node]:
                if depth[other] < 0:
                    depth[other] = next_depth
                    queue.append(other)
        reached += sum(1 for d in depth if d >= 0)
    order = np.lexsort(_LEX_KEYS)
    return reached + int(order[0] >= 0)


def _timed(fn) -> float:
    start = time.thread_time()
    fn()
    return time.thread_time() - start


class SpeedMeter:
    """Reference samples taken between the segments of one run.

    ``sample()`` is called before the first segment and after every
    segment, so segment ``i`` is bracketed by samples ``i`` and ``i+1``;
    :meth:`factor` turns that bracket into the segment's scale factor.
    """

    def __init__(self) -> None:
        self.samples: list[dict[str, float]] = []

    def sample(self) -> int:
        """Time one reference sample; returns its index."""
        was_enabled = gc.isenabled()
        gc.disable()
        try:
            dictset = min(_timed(_dictset), _timed(_dictset))
            bfs = min(_timed(_bfs), _timed(_bfs))
        finally:
            if was_enabled:
                gc.enable()
        self.samples.append(
            {"dictset": dictset, "bfs": bfs, "sum": dictset + bfs}
        )
        return len(self.samples) - 1

    def factor(self, before: int, slice_name: str) -> float:
        """Scale factor of the segment between samples ``before`` and
        ``before + 1``: nominal over the mean of the two."""
        pair = self.samples[before : before + 2]
        return NOMINAL[slice_name] / (sum(s[slice_name] for s in pair) / 2.0)

    def run_factor(self, slice_name: str) -> float:
        """The run's factor: nominal over the median sample."""
        return NOMINAL[slice_name] / float(
            np.median([s[slice_name] for s in self.samples])
        )
