"""A fixed kernel that tracks how fast the machine runs right now.

On a shared host the same covlab call can take 1.5 times as long for tens
of seconds while a neighbour loads the core; wall-clock throughput then
reads the neighbour, not covlab.  The benchmark times this kernel between
its timed calls and scales each call by ``REF_S`` over the kernel time
around it, so that timings read as if the kernel took ``REF_S``.  The
kernel mixes what covlab spends its time on: a k-d tree build and query
in compiled code, and a Python loop over a set.  Its inputs are fixed, so
no change to covlab can change its time.
"""

from __future__ import annotations

import time

import numpy as np
from scipy.spatial import cKDTree

# kernel seconds on an unloaded core of the reference machine (2-core
# x86-64 VM, CPython 3.11, numpy 2.4, scipy 1.17)
REF_S = 0.040


class Reference:
    def __init__(self):
        rng = np.random.default_rng(12345)
        self._points = rng.random((10_000, 2))
        self._queries = rng.random((60_000, 2))

    def seconds(self) -> float:
        """Median of three timings of the kernel, so one hiccup is ignored."""
        return sorted(self._once() for _ in range(3))[1]

    def _once(self) -> float:
        t0 = time.perf_counter()
        cKDTree(self._points).query(self._queries)
        keys = set()
        for i in range(30_000):
            keys.add(i * 7919 % 100_003)
        return time.perf_counter() - t0


def scaled(times: list[float], kernels: list[float]) -> list[float]:
    """Each time at reference speed; kernels[i], kernels[i+1] bracket it."""
    if len(kernels) != len(times) + 1:
        raise ValueError("need one kernel timing before and after each time")
    return [t * 2.0 * REF_S / (kernels[i] + kernels[i + 1])
            for i, t in enumerate(times)]
