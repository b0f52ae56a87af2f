"""A reference loop that gauges the host's speed while a workload runs.

The host's speed drifts by tens of percent over seconds to minutes, so
the same work takes a different time from one run to the next however
long each run is. A fixed pure-Python loop, run from a timer signal every
INTERVAL_S seconds in the benchmark's own thread, measures that speed at
the same moments as the work. A work time divided by the loop's time in
the same repetition is a cost in `ref` units, which the drift leaves
nearly unchanged. The loop is part of the benchmark, never of wsnsim, so
a change to wsnsim moves the work time and not the loop's.
"""

from __future__ import annotations

import bisect
import math
import random
import signal
import statistics
import time
from contextlib import contextmanager

INTERVAL_S = 0.05
ROUNDS = 4              # about 3 ms on a 2.1 GHz Xeon vCPU


class _Node:
    __slots__ = ("id", "x", "y", "energy")

    def __init__(self, ident, x, y):
        self.id, self.x, self.y, self.energy = ident, x, y, 0.5


_place = random.Random(1)
_NODES = [_Node(i, _place.uniform(0, 100), _place.uniform(0, 100)) for i in range(100)]


def reference_loop() -> None:
    """A few rounds of a toy clustering simulation: node objects, float
    arithmetic, random draws, lists and dicts, as wsnsim's rounds use them.
    Of the loops tried, this one tracked the drift of wsnsim's own times
    best. Every call does the same work: the draws are reseeded, and the
    energies it changes steer no branch."""
    rng = random.Random(7)
    for _ in range(ROUNDS):
        heads = [n for n in _NODES if rng.random() < 0.1] or _NODES[:1]
        members: dict[int, list[int]] = {}
        for node in _NODES:
            head = min(heads, key=lambda h: (h.x - node.x) ** 2 + (h.y - node.y) ** 2)
            d = math.hypot(head.x - node.x, head.y - node.y)
            members.setdefault(head.id, []).append(node.id)
            node.energy -= 5e-8 * (1 + d * d * 1e-4)


class Gauge:
    """Times the reference loop; `clock()` leaves the loop's time out."""

    def __init__(self):
        self.at: list[float] = []           # clock() when each loop started
        self.slices: list[float] = []       # duration of each loop, in s
        self.spent = 0.0
        self._busy = False

    def sample(self, *_signal_args) -> None:
        if self._busy:          # a tick during a loop the host stalled past INTERVAL_S
            return
        self._busy = True
        self.at.append(self.clock())
        t0 = time.perf_counter()
        reference_loop()
        duration = time.perf_counter() - t0
        self.slices.append(duration)
        self.spent += duration
        self._busy = False

    def clock(self) -> float:
        """perf_counter minus the time spent in the loop so far."""
        while True:
            spent = self.spent
            now = time.perf_counter()
            if spent == self.spent:         # no sample ran in between
                return now - spent

    def near(self, start: float, seconds: float) -> float:
        """Median loop time from one interval before `start` (a clock()
        reading) to one interval after `seconds` later."""
        lo = bisect.bisect_left(self.at, start - INTERVAL_S)
        hi = bisect.bisect_right(self.at, start + seconds + INTERVAL_S)
        if lo == hi:                        # none that close: the nearest one
            lo, hi = max(lo - 1, 0), lo + 1
        return statistics.median(self.slices[lo:hi])

    @contextmanager
    def running(self):
        """Sample every INTERVAL_S seconds for the length of the block."""
        previous = signal.signal(signal.SIGALRM, self.sample)
        signal.setitimer(signal.ITIMER_REAL, INTERVAL_S, INTERVAL_S)
        try:
            yield
        finally:
            signal.setitimer(signal.ITIMER_REAL, 0)
            signal.signal(signal.SIGALRM, previous)
