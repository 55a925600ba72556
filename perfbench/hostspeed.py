"""Host speed through a run, from a fixed reference kernel timed between ops.

The shared host's speed swings by up to 2x, for seconds or for many minutes,
and per-thread CPU time swings with it (contention, not steal).  No figure
taken from raw times can hold still across runs under that.  So the
benchmark times ``reference()`` after every op (and every in-process
set-up), and expresses each of their times at nominal host speed: the raw
time times REFERENCE_S over the mean of the reference times nearest it.  A
change to the program moves its op times and not the reference, so it still
shows in full.  The host flips between a fast and a slow state (about 4 and 7 ms for
the reference) every few tenths of a second to every few seconds, and an op
runs at the average speed of the states it spans; a mean follows that mix,
where a median jumps from one state to the other.

``reference()`` mixes the two kinds of work the program does: scalar Newton
steps in plain Python (floats, ``math.exp``, a dict per solve, as in the
diode law) and a 96x96 ``numpy.linalg.solve`` per step.  It is benchmark
code and never calls the program.
"""

from __future__ import annotations

import bisect
import math
import statistics
import time

import numpy

REFERENCE_S = 0.005   # nominal speed: reference() takes 5 ms, about its time on a quiet 2-vCPU Xeon
WINDOW = 9            # reference timings whose mean gives the speed at one moment
_SIZE = 96
_STEPS = 40
_A = numpy.eye(_SIZE) * 4.0 + numpy.random.default_rng(0).random((_SIZE, _SIZE)) * 0.01


def reference():
    """Fixed work, about 5 ms at nominal speed; returns a checksum."""
    acc = 0.0
    for _ in range(_STEPS):
        v, seen = 0.1, {}
        for it in range(20):
            e = math.exp(min(v / 0.025, 40.0))
            i = 1e-14 * (e - 1.0) - 1e-3 + v / 1e3
            g = 1e-14 * e / 0.025 + 1e-3
            v -= i / g
            seen[it] = v
        x = numpy.linalg.solve(_A, numpy.full(_SIZE, v))
        acc += float(x[0]) + len(seen)
    return acc


class HostSpeed:
    """Reference timings through a run, by the time each was taken."""

    def __init__(self):
        self.at = []    # perf_counter midpoint of each reference run
        self.took = []  # its seconds
        self.checksum = None

    def sample(self):
        t0 = time.perf_counter()
        checksum = reference()
        t1 = time.perf_counter()
        if self.checksum is None:
            self.checksum = checksum
        elif checksum != self.checksum:
            raise RuntimeError("reference kernel gave another result")
        self.at.append((t0 + t1) / 2)
        self.took.append(t1 - t0)

    def nominal(self, durations, starts):
        """Each of ``durations`` (seconds, begun at perf_counter time
        ``starts[k]``) at nominal speed: scaled by REFERENCE_S over the mean
        of the WINDOW reference timings nearest its midpoint."""
        n = len(self.took)
        out = []
        for took, t0 in zip(durations, starts):
            centre = bisect.bisect(self.at, t0 + took / 2)
            lo = max(0, min(centre - WINDOW // 2, n - WINDOW))
            out.append(took * REFERENCE_S / statistics.fmean(self.took[lo:lo + WINDOW]))
        return out
