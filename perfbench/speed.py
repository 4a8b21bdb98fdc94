"""Machine-speed probe: reports timings at a fixed reference speed.

The benchmark shares a small machine with other tenants, and their load
can halve this process's speed, changing within fractions of a second;
raw wall and CPU times of identical runs then differ by 30-40 %.  A
wall-clock timer interrupts the run every ``INTERVAL`` seconds and times a
fixed piece of pure-Python ``Fraction`` arithmetic (the probe, which uses no
fscat code).  A measured interval is rescaled by the mean of
``REFERENCE_S / probe time`` over the probes taken during it and within
``HALF_WINDOW_S`` of either end, i.e. to the time the same work would take
on a machine where the probe takes ``REFERENCE_S``.  The probes' own time is
subtracted from every interval first.  On a 2-vCPU host this brought the
spread of ten identical fs-endo passes from 41 % (raw) to under 5 %.
"""

from __future__ import annotations

import signal
import statistics
from bisect import bisect_left, bisect_right
from fractions import Fraction
from time import perf_counter, process_time

INTERVAL = 0.01
# the probe's time when uncontended on the 2-vCPU reference host, so that
# reference-speed seconds read close to raw seconds on a quiet machine
REFERENCE_S = 250e-6
# an interval is rescaled by the probes taken from this long before its
# start to this long after its end: enough probes to average their jitter,
# few enough to follow contention that changes within a second (repeated
# 0.1 s requests spread least with 0.03-0.1 s here, most with 0.5 s or more)
HALF_WINDOW_S = 0.05

_THREE_SEVENTHS = Fraction(3, 7)


def _probe_work():
    acc = Fraction(0)
    for i in range(1, 60):
        acc += Fraction(i % 97, i % 89 + 1) * _THREE_SEVENTHS
    return acc


class SpeedProbe:
    """Periodic probe; ``mark()`` and ``measure()`` time an interval."""

    def __init__(self):
        self.at = []         # probe start times (perf_counter)
        self.wall = []       # probe wall seconds
        self.cpu = []        # probe CPU seconds
        self.spent_wall = 0.0
        self.spent_cpu = 0.0
        self._busy = False

    def __enter__(self):
        signal.signal(signal.SIGALRM, self._tick)
        signal.setitimer(signal.ITIMER_REAL, INTERVAL, INTERVAL)
        return self

    def __exit__(self, *exc):
        signal.setitimer(signal.ITIMER_REAL, 0, 0)
        signal.signal(signal.SIGALRM, signal.SIG_DFL)

    def _tick(self, signum, frame):
        if self._busy:
            return
        self._busy = True
        w0, c0 = perf_counter(), process_time()
        _probe_work()
        dw, dc = perf_counter() - w0, process_time() - c0
        self.at.append(w0)
        self.wall.append(dw)
        self.cpu.append(dc)
        self.spent_wall += dw
        self.spent_cpu += dc
        self._busy = False

    def mark(self):
        """Opaque start or end point of an interval."""
        return perf_counter(), process_time(), self.spent_wall, self.spent_cpu

    def measure(self, start, end):
        """(raw wall, raw CPU, reference wall, reference CPU) seconds between
        two marks, without the probes' own time.  Call it once the probes
        after ``end`` may have been taken (e.g. after a whole pass)."""
        wall = end[0] - start[0] - (end[2] - start[2])
        cpu = end[1] - start[1] - (end[3] - start[3])
        lo = bisect_left(self.at, start[0] - HALF_WINDOW_S)
        hi = bisect_right(self.at, end[0] + HALF_WINDOW_S)
        if hi == lo:
            raise RuntimeError("no speed probe was taken near the interval")
        speed_wall = statistics.fmean(REFERENCE_S / w for w in self.wall[lo:hi])
        speed_cpu = statistics.fmean(REFERENCE_S / max(c, 1e-9)
                                     for c in self.cpu[lo:hi])
        return wall, cpu, wall * speed_wall, cpu * speed_cpu
