"""Machine-speed calibration for the benchmark's timings.

The benchmark was built on a 2-vCPU virtual machine (Python 3.11) whose
CPUs other tenants share.  There, the speed of the benchmark's own CPU
switched between two levels about 1.8x apart, several times a second, for
minutes at a time.  No statistic of raw pass times was steady from run to
run, and neither was a pass time divided by the time of a fixed loop run
just before and after the pass: the speed had often changed in between.

So while a pass runs, a timer signal interrupts it every INTERVAL_S and
times PROBE_LOOPS rounds of a fixed pure-Python loop.  Clock.now() leaves
the probes out and counts each stretch of time at the speed the latest
probe measured, REFERENCE_S / probe time: its intervals read as seconds on
a machine where the probe takes REFERENCE_S, about its time at the faster
speed level above.  With 400 rounds every 20 ms, the
pass times of the search and enumerate workloads grew in proportion to the
probe time (correlation 0.97 and 0.98 over repeated passes of one input,
intercept within 3% of the pass time); a probe of 100 rounds every 10 ms
slowed down far more than the workloads did.  The probes cost 2-5% of a
pass.  The loop is the benchmark's own code; no change to rkcodes can alter
it.
"""

from __future__ import annotations

import signal
from time import perf_counter
from typing import Callable, TypeVar

INTERVAL_S = 0.02
PROBE_LOOPS = 400
REFERENCE_S = 0.00045

T = TypeVar("T")


class _Point:
    __slots__ = ("x", "y")

    def __init__(self, x: int, y: int) -> None:
        self.x = x
        self.y = y


def loop_seconds() -> float:
    """Time of a fixed loop with the library's kind of work.

    Small objects, tuples, dict updates and int bit operations, as in ring
    arithmetic, span building and weight counting.
    """
    start = perf_counter()
    table: dict = {}
    for i in range(PROBE_LOOPS):
        p = _Point(i, i * 3)
        key = (p.x & 255, p.y >> 3)
        table[key] = table.get(key, 0) + 1
        word = tuple(b ^ i for b in (1, 2, 3, 4))
        table[word[0] & 63] = word
    return perf_counter() - start


class Clock:
    """Seconds at the reference speed, with the time spent in probes left out.

    Without sampling (or before the first probe) the speed is 1, and the
    clock reads like perf_counter.
    """

    def __init__(self) -> None:
        self.probe_s = 0.0
        self._mark = perf_counter()  # probe-free time of the latest probe
        self._reference_s = 0.0  # reference seconds up to _mark
        self._speed = 1.0

    def now(self) -> float:
        return self._reference_s + (perf_counter() - self.probe_s - self._mark) * self._speed

    def _probe(self, *_signal_args) -> None:
        self._reference_s = self.now()
        seconds = loop_seconds()
        self.probe_s += seconds
        self._mark = perf_counter() - self.probe_s
        self._speed = REFERENCE_S / seconds

    def sampled(self, fn: Callable[[], T]) -> T:
        """fn() run with a speed probe at its start and every INTERVAL_S."""
        previous = signal.signal(signal.SIGALRM, self._probe)
        self._probe()
        signal.setitimer(signal.ITIMER_REAL, INTERVAL_S, INTERVAL_S)
        try:
            return fn()
        finally:
            signal.setitimer(signal.ITIMER_REAL, 0)
            signal.signal(signal.SIGALRM, previous)
