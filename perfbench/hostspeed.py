"""Host-speed calibration for host-time metrics.

On a shared 2-vCPU VM the CPU's own speed swings by up to 2x over
seconds and minutes (neighbours on the same core and cache), and every
wall-clock and CPU-clock time swings with it: the same six simulations,
timed back to back for four minutes, took 0.58 s to 1.12 s (IQR/median
0.21), and blocks of six such units still 0.23.  No window the benchmark
can afford averages that away.

So a calibrated unit of work (a step of a cold set-up, a matrix-sweep
or mix-4core request, a cache-served report request) is bracketed by
short bursts of fixed pure-Python work that never touches the
simulator, and its host seconds are divided by the bursts' mean over
:data:`NOMINAL_S`: the result is the unit's time on a host running at
the reference speed.  In the measurement above the bursts' speed
tracked the simulations' (correlation 0.82), and the ratio's spread
fell to 0.10 per unit and 0.07 per block.  A change to the simulator
moves the reported times as much as it moves the host times; only the
host's speed drops out.  It only works where the timed work slows with
the host as the bursts do; README.md lists where it is used and the
measurements behind that choice.
"""

from __future__ import annotations

import statistics
import time

NOMINAL_S = 0.0175
"""Seconds one :func:`burst` takes at the reference speed: close to the
fast state of a 2-vCPU Xeon VM, where bursts took 16 ms to 39 ms over
an afternoon (medians 19 ms and 28 ms an hour apart).  The value only
sets the scale; reported times are host times on a host that runs bursts
this fast."""

ITERATIONS = 100_000


def burst() -> float:
    """Host seconds of one fixed burst: list indexing, integer arithmetic
    and dict stores, the interpreter work the simulator's loops are made
    of."""
    started = time.perf_counter()
    table = list(range(1 << 16))
    slots = {}
    acc = 0
    for i in range(ITERATIONS):
        acc += table[(i * 7919) & 0xFFFF]
        slots[i & 4095] = acc
    return time.perf_counter() - started


class HostClock:
    """Converts host seconds to reference seconds.  Call :meth:`scale`
    right after each timed unit; the burst before the unit is the one the
    previous call (or the constructor) ran."""

    def __init__(self) -> None:
        self.last = burst()
        self.factors: list[float] = []

    def scale(self, seconds: float) -> float:
        """``seconds`` divided by the host's slowness around the unit
        (bursts' mean time over :data:`NOMINAL_S`)."""
        after = burst()
        factor = (self.last + after) / (2 * NOMINAL_S)
        self.last = after
        self.factors.append(factor)
        return seconds / factor

    def median_factor(self) -> float:
        return statistics.median(self.factors) if self.factors else 0.0
