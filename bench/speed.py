"""The machine's speed, sampled while a workload runs.

On a machine shared with other work the CPU's speed drifts, by tens of
percent within minutes.  `SpeedSampler` times a fixed kernel that does not
touch udortho every INTERVAL_S of wall time, from a timer signal, so the
samples interleave with the workload and see the same machine.  A timing
is then reported at the reference speed: the kernel time inside it is
taken out, and the rest is scaled by the kernel's median time over
REFERENCE_S.  A change to udortho moves the result as it moves the raw
time; a change in the machine's speed moves the kernel by the same factor
and cancels.
"""

from __future__ import annotations

import signal
import statistics
from array import array
from bisect import bisect_left, bisect_right
from time import perf_counter

import numpy as np
from scipy.spatial import ConvexHull

INTERVAL_S = 0.1
# The kernel's time at the reference speed: about its median on the
# machine of bench/README.md's figures.
REFERENCE_S = 0.003

_RNG = np.random.default_rng(0)
_FRAME = np.linalg.qr(_RNG.standard_normal((4, 4)))[0]
_PLANE = _RNG.standard_normal((40, 2))
_PLANE = _PLANE[np.lexsort((_PLANE[:, 1], _PLANE[:, 0]))]
_SPACE = _RNG.standard_normal((16, 3))


def _cross(o, a, b) -> float:
    return (a[0] - o[0]) * (b[1] - o[1]) - (a[1] - o[1]) * (b[0] - o[0])


def kernel() -> float:
    """Seconds for a fixed mix of the kinds of work udortho's layers do:
    products and orthogonality checks of 4x4 matrices, a monotone-chain
    pass over numpy points in a Python loop, np.unique, and a qhull hull."""
    t0 = perf_counter()
    eye = np.eye(4)
    g = eye
    for _ in range(150):
        g = g @ _FRAME
        float(np.abs(g.T @ g - eye).max())
    for _ in range(5):
        lower: list = []
        for q in _PLANE:
            while len(lower) >= 2 and _cross(lower[-2], lower[-1], q) <= 0.0:
                lower.pop()
            lower.append(q)
    for _ in range(3):
        np.unique(_PLANE, axis=0)
        ConvexHull(_SPACE).volume
    return perf_counter() - t0


class SpeedSampler:
    """Kernel samples (end time, duration), taken while the sampler is
    entered.  Python runs the signal handler between two bytecodes of the
    main thread, so a sample never splits a `perf_counter` reading."""

    def __init__(self) -> None:
        self.ends = array("d")
        self.durations = array("d")

    def sample(self, signum=None, frame=None) -> None:
        """Time the kernel once; the timer signal's handler."""
        duration = kernel()
        self.ends.append(perf_counter())
        self.durations.append(duration)

    def __enter__(self) -> "SpeedSampler":
        self._previous = signal.signal(signal.SIGALRM, self.sample)
        signal.setitimer(signal.ITIMER_REAL, INTERVAL_S, INTERVAL_S)
        return self

    def __exit__(self, *exc) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0.0, 0.0)
        signal.signal(signal.SIGALRM, self._previous)

    def _within(self, t0: float, t1: float) -> array:
        return self.durations[bisect_left(self.ends, t0):bisect_right(self.ends, t1)]

    def busy(self, intervals) -> float:
        """Seconds inside the (start, end) intervals, less the samples there."""
        return sum(t1 - t0 - sum(self._within(t0, t1)) for t0, t1 in intervals)

    def scale(self, t0: float, t1: float) -> float:
        """The median kernel time between t0 and t1 over REFERENCE_S."""
        inside = self._within(t0, t1)
        if not inside:
            raise RuntimeError("no speed sample in the window: it is shorter than the interval")
        return statistics.median(inside) / REFERENCE_S
