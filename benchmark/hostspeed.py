"""Wall times read at a fixed host speed.

On a shared host the same code runs at speeds up to about 1.7x apart, and
the speed switches within fractions of a second as other tenants load the
physical core. The process's CPU time slows with its wall time, so the
hypervisor is not taking the time away: every instruction is slower. A
benchmark's run-to-run spread then measures the neighbours, not csemri.

While timed work runs, a ``SIGALRM`` interval timer interrupts it every
``INTERVAL_S`` of wall time and times one call of :func:`kernel`, fixed
work that does not touch csemri. A wall time measured over an interval is
multiplied by ``REFERENCE_S / k``, where ``k`` is the median kernel time in
that interval: it reads the time at the speed at which the kernel takes
``REFERENCE_S``. The import of numpy and csemri is read with
:func:`float_loop` alone, which needs no numpy, against
``LOOP_REFERENCE_S``. A change to csemri moves the wall time and leaves
``k`` alone, so it moves the normalised time by the same share. Python runs
the handler between bytecodes, so a long single call into compiled code
gets its samples from just before and after it.
"""

from __future__ import annotations

import bisect
import signal
import statistics
import time
from contextlib import contextmanager

INTERVAL_S = 0.01
# each kernel's median time, sampled during the workloads on the 2-vCPU
# reference host at its usual speed
REFERENCE_S = 2.0e-4
LOOP_REFERENCE_S = 8.0e-5
# an interval with fewer samples borrows the nearest ones around it
MIN_SAMPLES = 5

_arrays = None


def float_loop():
    """Plain interpreter work on Python floats, about 0.08 ms."""
    x = 0.5
    for _ in range(1200):
        x = x * 0.999 + 0.5
    return x


def small_numpy():
    """Small complex numpy steps and tiny matrix products, about 0.13 ms."""
    global _arrays
    if _arrays is None:
        import numpy as np

        rng = np.random.default_rng(0)
        _arrays = (np, rng.standard_normal((16, 6)) + 0j, rng.standard_normal((6, 3)) + 0j)
    np, u, m = _arrays
    s = 0.0
    for _ in range(6):
        w = np.exp(0.2j * np.pi * u) @ m
        s += float(np.sum(np.abs(w) ** 2))
    return s


def kernel():
    """The calibration work: :func:`float_loop` then :func:`small_numpy`.

    How much a busy host slows code depends on what the code does. In a
    trace of certify, identify and recon_clean, the log of an operation's
    time moved 1.04 to 1.05 times as far as the log of this sum's time, and
    1.19 to 1.34 times as far as that of a loop on Python ints alone. The
    match moves with the neighbours' load (README.md gives a second trace).
    """
    return float_loop() + small_numpy()


class SpeedSampler:
    """Kernel timings taken in the background of timed work, by start time."""

    def __init__(self, work=kernel, reference=REFERENCE_S):
        self.work = work
        self.reference = reference
        self.starts = []
        self.times = []

    def _sample(self, signum, frame):
        t0 = time.perf_counter()
        self.work()
        self.starts.append(t0)
        self.times.append(time.perf_counter() - t0)

    @contextmanager
    def sampling(self):
        """Sample while the block runs; the timer and old handler are restored after."""
        for _ in range(20):
            self.work()  # warm the kernel's code path
        previous = signal.signal(signal.SIGALRM, self._sample)
        signal.setitimer(signal.ITIMER_REAL, INTERVAL_S, INTERVAL_S)
        try:
            yield self
        finally:
            signal.setitimer(signal.ITIMER_REAL, 0.0)
            signal.signal(signal.SIGALRM, previous)
            self._sample(None, None)  # a block shorter than INTERVAL_S still gets a sample

    def kernel_time(self, t0, t1):
        """Median kernel time over [t0, t1], widened to MIN_SAMPLES samples."""
        lo = bisect.bisect_left(self.starts, t0)
        hi = bisect.bisect_right(self.starts, t1)
        while hi - lo < min(MIN_SAMPLES, len(self.times)):
            before = t0 - self.starts[lo - 1] if lo > 0 else float("inf")
            after = self.starts[hi] - t1 if hi < len(self.starts) else float("inf")
            if before <= after:
                lo -= 1
            else:
                hi += 1
        return statistics.median(self.times[lo:hi])

    def factor(self, t0, t1):
        """Multiplier that reads a wall time over [t0, t1] at the reference speed."""
        return self.reference / self.kernel_time(t0, t1)

    def normalised(self, t0, t1):
        return (t1 - t0) * self.factor(t0, t1)
