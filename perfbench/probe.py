"""The speed probe: a fixed job that calls nothing in ``repro``.

The host is shared, and the same code can run twice as slowly for
minutes at a time as its neighbours come and go.  A run therefore
times this fixed job between its units and scales its timings to the
speed at which the job takes :data:`REFERENCE_S`.  The job mixes the
two kinds of work the program does, interpreted loops over dicts and
lists and whole-array NumPy passes over half a million elements, so
both slow down with it.  A change to the program cannot move it.
"""

from __future__ import annotations

import statistics
import time

import numpy as np

#: Median wall seconds of one probe on the box ``NOTES.md`` describes.
REFERENCE_S = 0.035

_N = 1 << 19
_rng = np.random.default_rng(12345)
_VALUES = _rng.random(_N)
_INDEX = _rng.integers(0, _N, _N)
_STARTS = np.arange(0, _N, 8)


def _interpreted() -> int:
    table: dict[int, list[int]] = {}
    total = 0
    for i in range(120_000):
        key = (i * 7919) & 2047
        bucket = table.get(key)
        if bucket is None:
            table[key] = bucket = []
        bucket.append(i)
        total += len(bucket) % 3
    for bucket in table.values():
        bucket.sort(reverse=True)
    return total


def _vectorised() -> float:
    gathered = _VALUES[_INDEX]
    best = np.maximum.reduceat(gathered * 1.5 - _VALUES, _STARTS)
    order = np.argsort(best, kind="stable")
    return float(best[order[-1]] + np.cumsum(gathered)[-1])


class Probe:
    """Wall times of the fixed job, taken between a run's timed steps.

    The speed drifts within a run too, so each step is scaled by the
    samples taken right before and right after it.
    """

    def __init__(self) -> None:
        self.interpreted: list[float] = []
        self.vectorised: list[float] = []

    def __len__(self) -> int:
        return len(self.interpreted)

    def sample(self, repeats: int) -> None:
        for _ in range(repeats):
            t0 = time.perf_counter()
            _interpreted()
            t1 = time.perf_counter()
            _vectorised()
            t2 = time.perf_counter()
            self.interpreted.append(t1 - t0)
            self.vectorised.append(t2 - t1)

    def seconds(self, lo: int = 0, hi: int | None = None) -> float:
        """The median of samples ``lo:hi``, interpreted plus vectorised."""
        return statistics.median(
            a + b
            for a, b in zip(self.interpreted[lo:hi], self.vectorised[lo:hi])
        )

    def scale(self, lo: int = 0, hi: int | None = None) -> float:
        """Factor that turns wall seconds into reference seconds."""
        return REFERENCE_S / self.seconds(lo, hi)

    def around(self, mark: int, repeats: int) -> float:
        """Sample ``repeats`` times after a step that began at sample
        ``mark``; return the scale of the ``repeats`` samples either side.
        """
        self.sample(repeats)
        return self.scale(max(0, mark - repeats), mark + repeats)
