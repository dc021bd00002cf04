"""Summary statistics shared by every workload of the benchmark.

Timings are reported as a median plus the highest percentile that still
has at least :data:`TAIL_BEYOND` samples beyond it, together with the
sample count, so a tail figure is never read off a handful of points.
"""

from __future__ import annotations

import time
from typing import Sequence

import numpy as np

#: Samples that must lie beyond a reported tail percentile.
TAIL_BEYOND = 10


def tail_percentile(count: int, beyond: int = TAIL_BEYOND) -> int:
    """Highest whole percentile ``p`` with at least ``beyond`` of
    ``count`` samples above its nearest rank; ``0`` when even the
    median has fewer than ``beyond`` samples beyond it (then no tail
    can be reported)."""
    best = 0
    for p in range(50, 100):
        if count - nearest_rank(count, p) >= beyond:
            best = p
    return best


def min_count(p: int, beyond: int = TAIL_BEYOND) -> int:
    """Fewest samples for which :func:`tail_percentile` reaches ``p``."""
    count = 1
    while tail_percentile(count, beyond) < p:
        count += 1
    return count


def nearest_rank(count: int, p: int) -> int:
    """1-based nearest rank of whole percentile ``p`` among ``count``
    samples, ``ceil(p * count / 100)`` in integers (no float rounding)."""
    return max(1, -(-int(p) * count // 100))


def percentile(values: Sequence[float], p: int) -> float:
    """Nearest-rank percentile (the value at rank ``ceil(p/100 * n)``)."""
    ordered = sorted(values)
    if not ordered:
        raise ValueError("percentile of an empty sample")
    return float(ordered[nearest_rank(len(ordered), p) - 1])


def median(values: Sequence[float]) -> float:
    return float(np.median(np.asarray(values, dtype=np.float64)))


def timing_summary(values_ms: Sequence[float], p: int) -> dict:
    """``{"p50", "pXX", "n"}`` of a latency sample, ``XX`` fixed by the
    caller (:func:`tail_percentile` of the count it is sized for)."""
    return {"p50": percentile(values_ms, 50), f"p{p}": percentile(values_ms, p),
            "n": len(values_ms)}


def windowed_percentile(values: Sequence[float], p: int,
                        windows: int) -> float:
    """Median over ``windows`` consecutive equal slices of ``values``
    (in arrival order) of each slice's ``p`` percentile: one stall of
    the shared machine moves one slice's tail, not the reported one."""
    size = len(values) // windows
    return median([percentile(values[i * size:(i + 1) * size], p)
                   for i in range(windows)])


class SpeedProbe:
    """A fixed piece of CPU work, independent of the program, sampled
    many times through a run to gauge how fast the shared host runs
    just then.

    Each sample is a short mix of what the program itself does -- small
    BLAS products and elementwise ops, a sort, dict-heavy interpreter
    work -- timed in CPU time.  On the shared host CPU time of the same
    work moves by 20-25% between quiet and busy phases (clock and cache
    sharing, which steal accounting does not remove); the program's CPU
    times are multiplied by :meth:`scale`, ``REFERENCE_MS / median
    sample``, so they read as CPU time on a host where one sample takes
    ``REFERENCE_MS``.  The probe calls nothing in the program, so a
    change to the program cannot move it."""

    #: Median CPU ms of one sample on the reference host (a quiet phase
    #: of a 2-vCPU Xeon VM); only fixes the scale metrics read on.
    REFERENCE_MS = 1.0

    def __init__(self):
        rng = np.random.default_rng(12345)
        self._x = rng.standard_normal((256, 64))
        self._w = rng.standard_normal((64, 64)) * 0.1
        self._v = rng.standard_normal(20_000)
        self._keys = list(range(3_000))
        self.samples_ms: list = []

    def sample(self, count: int = 1) -> None:
        for _ in range(count):
            start = time.process_time()
            for _ in range(8):
                a = self._x @ self._w
                np.tanh(a, out=a)
                a.sum(axis=0)
            np.argsort(self._v)
            buckets = {}
            for key in self._keys:
                buckets[key % 97] = buckets.get(key % 97, 0) + key
            sorted(buckets.values())
            self.samples_ms.append((time.process_time() - start) * 1000.0)

    def median_ms(self) -> float:
        return median(self.samples_ms)

    def scale(self) -> float:
        return self.REFERENCE_MS / self.median_ms()
