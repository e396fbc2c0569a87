"""Timing in nominal seconds, steady on a machine whose speed drifts.

The machines this benchmark runs on are virtual and share their cores
with other tenants.  Two things stretch raw wall times of identical
rounds by 20-150 %: the hypervisor stops the virtual CPU for a while
(steal time), and a busy neighbour on the same physical core slows it
down by up to 1.6x for stretches of a few seconds.

So a request is timed in CPU time (this process's, plus that of every
child process it reaped), which steal does not advance, and that CPU
time is scaled for the neighbour's slowdown.  A short, fixed
calibration loop (stdlib only, so no change to the package under test
can speed it up) runs at every request boundary, and every
``TICK_INTERVAL_S`` inside long requests.  The CPU time between two
calibrations is divided by how much slower than uncontended the mean of
the two ran.  Calibration time itself is never counted.

CPU time alone would miss time the program spends waiting: sleeping,
blocking on I/O, a lock or a child process.  Waiting is a voluntary
context switch, and the package under test makes none while it runs
(it is single-threaded and CPU-bound), so a stretch between two
calibrations in which the process switched voluntarily is counted
as its CPU time, scaled, plus its wall time off the CPU, unscaled.
"""

from __future__ import annotations

import resource
import time
from typing import Optional, Tuple

#: iterations of each half of the calibration loop: about 0.45 ms in all
CALIBRATION_LOOPS = 3_000
#: the loop's CPU time on an uncontended core of a 2.0 GHz Xeon
#: (CPython 3.11), the speed the nominal seconds refer to
NOMINAL_CALIBRATION_S = 0.00044
#: wall seconds between recalibrations inside a long request
TICK_INTERVAL_S = 0.05


class _Counter:
    __slots__ = ("total",)

    def __init__(self) -> None:
        self.total = 0

    def add(self, value: int) -> int:
        self.total += value
        return self.total


def calibrate() -> float:
    """CPU time of a fixed loop of integer arithmetic, then one of
    method calls.  Under contention arithmetic alone slows down less than
    the benchmark's code, and calls alone more; the sum tracks it."""
    start = time.process_time()
    acc = 0
    for i in range(CALIBRATION_LOOPS):
        acc += i * i % 7
    counter = _Counter()
    for i in range(CALIBRATION_LOOPS):
        counter.add(i)
    return time.process_time() - start


def slowdown(before: float, after: float) -> float:
    """How much slower than uncontended the core ran between two
    calibrations."""
    return (before + after) / 2 / NOMINAL_CALIBRATION_S


def cpu_time() -> float:
    """CPU seconds of this process and of the child processes it reaped."""
    children = resource.getrusage(resource.RUSAGE_CHILDREN)
    return time.process_time() + children.ru_utime + children.ru_stime


def _voluntary_switches() -> int:
    return resource.getrusage(resource.RUSAGE_SELF).ru_nvcsw


class Meter:
    """Accumulates nominal seconds, raw wall seconds and the wall
    seconds spent waiting off the CPU between :meth:`start` and
    :meth:`stop`."""

    def __init__(self) -> None:
        self._calibration: Optional[float] = None
        self._cpu_start = 0.0
        self._wall_start = 0.0
        self._switches_start = 0
        self.nominal = 0.0
        self.raw = 0.0
        self.off_cpu = 0.0

    def _close_gap(self) -> None:
        wall = time.perf_counter() - self._wall_start
        cpu = cpu_time() - self._cpu_start
        waited = _voluntary_switches() != self._switches_start
        calibration = calibrate()
        self.raw += wall
        self.nominal += cpu / slowdown(self._calibration, calibration)
        if waited:
            off_cpu = max(0.0, wall - cpu)
            self.nominal += off_cpu
            self.off_cpu += off_cpu
        self._calibration = calibration
        self._open_gap()

    def _open_gap(self) -> None:
        self._switches_start = _voluntary_switches()
        self._cpu_start = cpu_time()
        self._wall_start = time.perf_counter()

    def start(self) -> None:
        """Begin timing; the calibration the last :meth:`stop` ran
        stands for the speed at this start."""
        if self._calibration is None:
            self._calibration = calibrate()
        self.nominal = self.raw = self.off_cpu = 0.0
        self._open_gap()

    def tick(self, *_ignored) -> None:
        """Recalibrate inside a long request (an explorer control hook)."""
        if time.perf_counter() - self._wall_start >= TICK_INTERVAL_S:
            self._close_gap()

    def stop(self) -> Tuple[float, float, float]:
        """End timing: (nominal seconds, raw wall seconds, off-CPU wall
        seconds, which the nominal seconds include)."""
        self._close_gap()
        return self.nominal, self.raw, self.off_cpu
