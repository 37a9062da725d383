"""The machine's pace while a run is timed, from a fixed reference kernel.

The benchmark runs on a few cores of a shared host. The speed this process
gets there drifts by 20% and more over tens of seconds as neighbours load
the same cores, and CPU time drifts with wall time, so neither clock alone
repeats from run to run. To take the drift out, a ``Pacer`` times a fixed
pure-Python kernel every ``TICK_S`` seconds while the loop runs, from a
``SIGALRM`` handler: the benchmark stays one thread, and the handler runs
between bytecodes of the code being measured. A window's pace is the median
kernel time inside it over ``NOMINAL_S``, the kernel's time at the reference
speed; a time at the reference speed is the window's time, less the kernel's
own time, divided by its pace.
"""

from __future__ import annotations

import signal
import statistics
import time

TICK_S = 0.1
KERNEL_LOOPS = 10_000
# Time of one kernel run at the reference speed: about the median on the
# 2-core shared Xeon (2.1 GHz) the benchmark was written on, so that
# reference-speed figures read close to that machine's wall-clock ones.
NOMINAL_S = 7e-4


def kernel() -> int:
    total = 0
    for i in range(KERNEL_LOOPS):
        total += i * i
    return total


class Pacer:
    """Context manager sampling the kernel's time every ``TICK_S``."""

    def __init__(self):
        self.ticks = []  # (start, seconds) of every kernel run
        self._previous = None

    def _tick(self, *_):
        start = time.perf_counter()
        kernel()
        self.ticks.append((start, time.perf_counter() - start))

    def __enter__(self) -> "Pacer":
        self._tick()  # every window has a sample at or before it
        self._previous = signal.signal(signal.SIGALRM, self._tick)
        signal.setitimer(signal.ITIMER_REAL, TICK_S, TICK_S)
        return self

    def __exit__(self, *exc):
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, self._previous)

    def window(self, start: float, end: float):
        """(pace, kernel seconds) of the samples taken in [start, end].

        A window too short to hold a sample takes the pace of the last
        sample before it.
        """
        inside = [s for t, s in self.ticks if start <= t <= end]
        if inside:
            return statistics.median(inside) / NOMINAL_S, sum(inside)
        before = [s for t, s in self.ticks if t < start]
        return before[-1] / NOMINAL_S, 0.0
