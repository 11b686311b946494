"""Host speed: a fixed reference kernel, timed between ops.

The benchmark runs on a few cores of a shared host whose speed drifts by
up to a third from one run to the next. A run times ``reference()`` every
``INTERVAL_S`` seconds of op time, in the same process and between ops
(never concurrently with them), and divides its end-to-end times by
``speed(samples)``: the median reference time over ``NOMINAL_S``. Those
times then read as at the nominal host speed, and the slow drift between
runs mostly cancels. Bursts shorter than a run, and contention that slows
the program's two-thread BLAS calls more than this single-threaded kernel,
do not cancel.

The kernel touches nothing of qwave and calls no BLAS routine, so the
program's code does not enter its cost. It mixes kinds of work the
workloads do: sampling (``cumsum`` and ``searchsorted`` over 1e5
uniforms), many small numpy calls, and plain interpreted Python.
"""

from __future__ import annotations

import statistics
import time

import numpy as np

#: Median time of ``reference()`` on the 2-vCPU reference machine when the
#: host was quiet (Python 3.11.7, numpy 2.4.6).
NOMINAL_S = 0.0150
#: Seconds of op time between two reference timings.
INTERVAL_S = 0.5

_rng = np.random.default_rng(20260101)


def reference() -> float:
    """Seconds one pass of the reference kernel takes now."""
    t0 = time.perf_counter()
    cdf = np.cumsum(_rng.random(4096))
    np.searchsorted(cdf, _rng.random(100_000) * cdf[-1])
    z = np.ones(64, dtype=complex)
    for _ in range(300):
        z = z * 1.0001 + 0.5j
        np.abs(z).sum()
    total = 0
    for k in range(20_000):
        total += k * k
    return time.perf_counter() - t0


class Sampler:
    """Times ``reference()`` whenever ``INTERVAL_S`` has passed since the
    last timing; call ``poll()`` between ops."""

    def __init__(self):
        reference()  # first call: allocations and caches, untimed
        self.samples: list[float] = []
        self._last = float("-inf")

    def poll(self) -> float:
        """Time the kernel if it is due; returns the seconds spent here."""
        start = time.perf_counter()
        if start - self._last < INTERVAL_S:
            return 0.0
        self.samples.append(reference())
        self._last = time.perf_counter()
        return self._last - start


def speed(samples: list[float]) -> float:
    """Host slowdown against nominal: median reference time / NOMINAL_S."""
    return statistics.median(samples) / NOMINAL_S
