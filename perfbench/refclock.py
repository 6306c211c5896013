"""A clock in reference seconds: CPU time scaled by the host's current speed.

On a shared host one core's speed changes by up to a factor of two
within seconds, as other guests come and go on the same physical core;
process CPU time moves with it, so it is no steadier than wall time.
``RefClock`` samples that speed: every ``PERIOD_S`` of wall time a
``SIGALRM`` handler times ``UNITS`` calibration units, fixed
interpreter-bound work owned by the benchmark, and the CPU time until
the next sample is scaled by ``UNIT_REF_S`` over the unit's measured
time.  The program runs the same kind of work as the units (dicts,
sorting, small objects and method calls), so its scaled time barely
moves when the host slows down: jobs repeated in one process spread
by a quarter in CPU time and by a twentieth in reference time.

The units' own CPU time is left out of the clock, which is monotonic.
The alarm uses the wall-clock timer on purpose: a process-wide CPU
timer (``ITIMER_PROF``) makes Linux read process CPU time at tick
granularity.  Signals are handled between bytecodes, so a long call
into C code is scaled by the speed sampled before it.
"""

from __future__ import annotations

import signal
import time

PERIOD_S = 0.05
UNITS = 3
# CPU time of one calibration unit at reference speed.  A constant, so
# that reference seconds mean the same on every run and every commit.
UNIT_REF_S = 0.0003

_KEYS = [(i * 7919) % 4093 for i in range(600)]
_NAMES = [f"k{i}" for i in range(40)]


class _Point:
    __slots__ = ("x", "y")

    def __init__(self, x: int, y: int) -> None:
        self.x = x
        self.y = y

    def at(self, z: int) -> int:
        return self.x * z + self.y


def _unit() -> int:
    """One calibration unit: dict updates, sorting, objects and calls."""
    counts: dict = {}
    acc = 0
    for _ in range(3):
        for key in _KEYS:
            counts[key] = counts.get(key, 0) + 1
    named: dict = {}
    for _ in range(16):
        for name in _NAMES:
            named[name] = named.get(name, 0) + 1
        acc += len(sorted(named.values()))
        acc += sum([x * 3 for x in range(64)]) & 7
    for i in range(330):
        acc += _Point(i, 3).at(2)
    return acc + len(counts)


class RefClock:
    """Reference seconds since ``start``; see the module docstring."""

    def __init__(self) -> None:
        self._ref = 0.0
        self._factor = 1.0
        self._mark = time.process_time()
        self._generation = 0
        self._busy = False

    def start(self) -> None:
        self._factor = self._speed()
        self._mark = time.process_time()
        signal.signal(signal.SIGALRM, self._on_alarm)
        signal.setitimer(signal.ITIMER_REAL, PERIOD_S, PERIOD_S)

    def stop(self) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0.0, 0.0)
        signal.signal(signal.SIGALRM, signal.SIG_DFL)

    def now(self) -> float:
        while True:
            # Retry if a sample landed between the reads below.
            generation = self._generation
            value = self._ref + (time.process_time() - self._mark) * self._factor
            if generation == self._generation:
                return value

    def _speed(self) -> float:
        start = time.process_time()
        for _ in range(UNITS):
            _unit()
        return UNITS * UNIT_REF_S / (time.process_time() - start)

    def _on_alarm(self, signum, frame) -> None:
        if self._busy:
            return
        self._busy = True
        try:
            self._ref += (time.process_time() - self._mark) * self._factor
            self._factor = self._speed()
            self._mark = time.process_time()
            self._generation += 1
        finally:
            self._busy = False
