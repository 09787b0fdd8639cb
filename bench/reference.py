"""How fast the shared host runs at each moment of a run.

The benchmark's host is shared, and other tenants slow it by up to 2x
for seconds to minutes at a time. CPU time slows alike, since the
contention is for shared hardware, so no clock subtracts it. The
harness therefore times a fixed reference kernel every
:attr:`Reference.every` seconds while an untraced pass runs, and at
the ends of every pass, and divides each stretch of measured time by
the kernel time sampled at its two ends. The quotient, in ``ref``
units, is how many kernel runs the stretch is long: it tracks the
program's own cost and much less the host's load.

The kernel does a fixed amount of the work the program's hot paths do:
interpreter loops, dict building and sorting, JSON decoding and small
numpy calls. It never changes with the program; changing it rescales
every ``ref`` metric.
"""

from __future__ import annotations

import bisect
import contextlib
import json
import signal
import statistics
import time
from array import array

import numpy as np

__all__ = ["Reference", "kernel"]

_BLOB = json.dumps([
    {"cell": i, "job": {"seed": i, "params": ["x", i]},
     "payload": [i / 7 + j / 11 for j in range(12)]}
    for i in range(24)
])
_VEC = np.linspace(0.0, 1.0, 64)


def kernel() -> float:
    """One run of the fixed reference work (about 1.5 ms on a 2020s core)."""
    acc = 0
    for i in range(6000):
        acc += i * i % 7
    for _ in range(3):
        acc += len(json.loads(_BLOB))
    table = {f"k{i}": (i % 13, i) for i in range(1500)}
    acc += sorted(table.items())[-1][1][1]
    v = _VEC
    for _ in range(150):
        v = np.minimum(v + 0.5, 2.0)
    return acc + float(v.sum())


class Reference:
    """Kernel timings taken during a run, and time measured in them.

    A sample is the median of ``repeats`` back-to-back kernel runs, so
    one preemption does not make the host look slow.
    """

    def __init__(self, every: float = 0.25, *, repeats: int = 3,
                 clock=time.perf_counter, work=kernel):
        self.every = every
        self.repeats = repeats
        self.clock = clock
        self.work = work
        #: Start, end and kernel time of every sample, in time order.
        self.starts = array("d")
        self.ends = array("d")
        self.durations = array("d")
        #: Total time spent sampling, to leave out of what is measured.
        self.spent = 0.0

    def sample(self) -> None:
        """Take one sample now."""
        start = t0 = self.clock()
        runs = []
        for _ in range(self.repeats):
            self.work()
            t1 = self.clock()
            runs.append(t1 - t0)
            t0 = t1
        self.starts.append(start)
        self.ends.append(t0)
        self.durations.append(statistics.median(runs))
        self.spent += t0 - start

    @contextlib.contextmanager
    def sampling(self):
        """Sample every ``every`` seconds of wall time inside the block.

        A timer signal interrupts the program between two bytecodes,
        so a sample can fall inside any operation; :meth:`cost` and
        :attr:`spent` leave its time out.
        """
        previous = signal.signal(signal.SIGALRM, lambda *_: self.sample())
        signal.setitimer(signal.ITIMER_REAL, self.every, self.every)
        try:
            yield
        finally:
            signal.setitimer(signal.ITIMER_REAL, 0)
            signal.signal(signal.SIGALRM, previous)

    def cost(self, start: float, end: float) -> float:
        """``[start, end]`` in ``ref`` units, sampling time left out.

        Between two samples the kernel time is taken as their mean;
        before the first and after the last, as that sample's.
        """
        starts, ends, durs = self.starts, self.ends, self.durations
        n = len(starts)
        i = bisect.bisect_right(starts, start) - 1
        total = 0.0
        if i < 0:  # before the first sample
            total += (min(end, starts[0]) - start) / durs[0]
            i = 0
        while i < n:
            last = i + 1 == n
            lo = max(start, ends[i])
            hi = end if last else min(end, starts[i + 1])
            if hi > lo:
                total += (hi - lo) / (durs[i] if last else (durs[i] + durs[i + 1]) / 2)
            if last or starts[i + 1] >= end:
                break
            i += 1
        return total

    def sampled(self, start: float, end: float) -> float:
        """Seconds of ``[start, end]`` spent sampling."""
        lo = max(bisect.bisect_right(self.starts, start) - 1, 0)
        hi = bisect.bisect_left(self.starts, end)
        return sum(max(0.0, min(end, self.ends[i]) - max(start, self.starts[i]))
                   for i in range(lo, hi))

    def median(self) -> float:
        """Median kernel time of the run, in seconds."""
        return statistics.median(self.durations)
