"""The host's speed for a single core, read from a fixed reference loop.

The benchmark's time metrics are seconds *at the reference speed*.  All
through a run, the harness and its workers time a reference loop
(``probe``) between pieces of work: before every spawned process, and
after a piece of work one reading for every ``PROBE_EVERY_S`` it took,
so that a long piece gets as many readings as the short ones it
replaces.  Each timed piece of work is then scaled by ``REF_PROBE_S /
speed``, where ``speed`` is the mean of the readings taken while it ran
or within ``WINDOW_S`` of its start or end, leaving out readings over
twice their median (the loop was descheduled).  The host this was tuned
on flips between a fast and a slow speed, 1.7x apart, faster than a
window is long, and the share of slow time drifts over minutes; that
drift otherwise decides a whole run's numbers.  The mean weighs the two
speeds by their share of the window, where a median would snap to one of
them.  A change to bepoly moves the scaled times as much as the raw
ones: the loop runs no bepoly code.

The loop adds ``Fraction``s with growing denominators, so that it leans
on the interpreter and on big-integer arithmetic as bepoly's exact
polynomial arithmetic does.  Times come from ``perf_counter``, the
system-wide monotonic clock, so readings and intervals taken in
different processes share one time axis.
"""

import bisect
import statistics
from fractions import Fraction
from time import perf_counter

# About what probe() reads on the host the benchmark was tuned on (2-vCPU
# Intel Xeon VM, 2.1 GHz, Python 3.11.7) in its fast phase.  A fixed
# constant: it sets the scale of the reported seconds and nothing else.
REF_PROBE_S = 0.002

PROBE_EVERY_S = 0.05  # seconds of work per reading
MAX_READINGS = 10     # readings after one piece of work, at most
WINDOW_S = 0.4        # readings this close to an interval set its speed


def probe() -> list[float]:
    """One reading: [midpoint, seconds] of a run of the reference loop."""
    t0 = perf_counter()
    total = Fraction(0)
    for k in range(1, 700):
        total += Fraction(1, k)
    t1 = perf_counter()
    return [(t0 + t1) / 2, t1 - t0]


def probes_after(seconds: float) -> list[list[float]]:
    """Readings for `seconds` of work: one per PROBE_EVERY_S, at least one."""
    return [probe() for _ in range(min(MAX_READINGS, max(1, int(seconds / PROBE_EVERY_S))))]


class Timeline:
    """The readings of one run, from every process, and the scaling of
    intervals by them."""

    def __init__(self) -> None:
        self.readings: list[list[float]] = []
        self._times: list[float] | None = None

    def probe(self, count: int = 1) -> None:
        self.readings += [probe() for _ in range(count)]
        self._times = None

    def add(self, readings: list[list[float]]) -> None:
        self.readings += readings
        self._times = None

    def speed(self, t0: float, t1: float) -> float:
        """Mean reading from WINDOW_S before t0 to WINDOW_S after t1, or of
        all readings if there is none so close, without the outliers."""
        if self._times is None:
            self.readings.sort()
            self._times = [r[0] for r in self.readings]
        lo = bisect.bisect_left(self._times, t0 - WINDOW_S)
        hi = bisect.bisect_right(self._times, t1 + WINDOW_S)
        near = [r[1] for r in self.readings[lo:hi]] or [r[1] for r in self.readings]
        typical = statistics.median(near)
        return statistics.fmean(r for r in near if r <= 2 * typical)

    def scale(self, t0: float, seconds: float) -> float:
        """`seconds` of work started at `t0`, in seconds at the reference speed."""
        return seconds * REF_PROBE_S / self.speed(t0, t0 + seconds)
