"""Machine-speed sampling, so pass times can be stated at a fixed speed.

The 2-core KVM guest this benchmark was built on changes speed by up to
1.8x, in spells of seconds to minutes, with no steal time and CPU time equal
to wall time: the host slows the virtual CPU. One 20 s run cannot average
that out. Raw median pass times of the same code spread 18-32%
(inter-quartile range over median) across ten runs. Window statistics did
not help: the median, minimum and per-solve minimum of passes all spread
as much or more.

:class:`SpeedSampler` runs a fixed kernel of about 1 ms every
``PERIOD_S`` during a timed pass, from a ``SIGALRM`` handler. Each stretch
of the pass's own work between two samples is scaled by
``REFERENCE_KERNEL_S`` over the kernel time measured at its ends, and the
stretches are summed. The result is the pass's time at the speed where the
kernel takes ``REFERENCE_KERNEL_S``. The kernel's own time is left out.
Sampling costs about 2% of a pass. Over ten ``fw_tangent`` runs the
spread of median pass times was 0.32 measured and 0.036 scaled.

The kernel mixes the pass's three kinds of work: numpy calls on length-2
arrays, a 64 x 64 matrix-vector product and 17-digit float formatting.
It uses no feasib code, so a change to feasib moves the pass time but not
the kernel.
"""

from __future__ import annotations

import math
import signal
from time import perf_counter

import numpy as np

PERIOD_S = 0.05
KERNEL_ITERS = 40
# Kernel time at the reference speed: the kernel's time in the fast state of
# a 2-core Intel Xeon (Sapphire Rapids) KVM guest, Python 3.11, numpy 2.4,
# where in-pass samples read 0.63-0.67 ms (1.1-1.3 ms in the slow state).
# Pass times are therefore stated at that guest's fast speed.
REFERENCE_KERNEL_S = 0.65e-3

_Q = np.array([[2.0, 0.3], [0.3, 1.0]])
_P = np.array([1.0, -1.0])
_M = np.random.default_rng(0).normal(size=(64, 64))


def kernel() -> float:
    """The fixed calibration work; returns a value so nothing is skipped."""
    w = np.array([0.1, 0.2])
    v = np.ones(64)
    text = 0
    for _ in range(KERNEL_ITERS):
        g = w - _P
        b = _Q @ g
        z = w - b / math.sqrt(float(g @ b))
        d = z - w
        w = w + (1e-3 * min(1.0, abs(float(g @ (w - z))) / (float(d @ d) + 1.0))) * d
        v = _M @ v
        v /= float(np.abs(v).max())
        text += len(format(float(w[0]), ".17g"))
    return float(w[0]) + float(v[0]) + text


class SpeedSampler:
    """Samples the kernel's time while a pass runs; use as a context
    manager around the pass, then read :meth:`reference_seconds`."""

    def __init__(self):
        self.samples: list[tuple[float, float]] = []  # kernel start, end
        self.start = self.end = 0.0

    def _handler(self, signum, frame) -> None:
        t0 = perf_counter()
        kernel()
        self.samples.append((t0, perf_counter()))

    def __enter__(self) -> "SpeedSampler":
        self.samples = []
        self._previous = signal.signal(signal.SIGALRM, self._handler)
        self.start = perf_counter()
        signal.setitimer(signal.ITIMER_REAL, PERIOD_S, PERIOD_S)
        return self

    def __exit__(self, *exc) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0.0, 0.0)
        self.end = perf_counter()
        signal.signal(signal.SIGALRM, self._previous)

    @property
    def kernel_seconds(self) -> float:
        """Time the pass spent in the kernel; subtract it from its clocks."""
        return sum(t1 - t0 for t0, t1 in self.samples)

    def reference_seconds(self) -> float:
        """The pass's own work time, scaled to the reference speed."""
        if not self.samples:
            raise RuntimeError("the pass ended before the first speed sample")
        cost = [t1 - t0 for t0, t1 in self.samples]
        edges = [self.start] + [t for s in self.samples for t in s] + [self.end]
        total = 0.0
        for i in range(len(self.samples) + 1):
            work = edges[2 * i + 1] - edges[2 * i]
            ends = cost[max(i - 1, 0):i + 1]
            total += work * REFERENCE_KERNEL_S / (sum(ends) / len(ends))
        return total
