"""Schedulers and the one-shot ``execute`` helper.

A scheduler is anything with ``choose(executor) -> tid``; it is asked
for a decision at every scheduling point and must return one of the
currently enabled thread ids.
"""

from __future__ import annotations

import random
from typing import List, Optional, Sequence

from ..core.events import Event
from ..errors import SchedulerError
from .executor import Executor
from .program import Program
from .state import describe_state
from .trace import TraceResult


class FirstEnabledScheduler:
    """Always runs the lowest-numbered enabled thread (a deterministic
    default; corresponds to depth-first leftmost exploration)."""

    def choose(self, ex: Executor) -> int:
        return ex.enabled()[0]


class RoundRobinScheduler:
    """Cycles through threads, switching after every visible operation."""

    def __init__(self) -> None:
        self._last = -1

    def choose(self, ex: Executor) -> int:
        enabled = ex.enabled()
        for tid in enabled:
            if tid > self._last:
                self._last = tid
                return tid
        self._last = enabled[0]
        return enabled[0]


class RandomScheduler:
    """Uniform random choice among enabled threads (seeded)."""

    def __init__(self, seed: int = 0) -> None:
        self.rng = random.Random(seed)

    def choose(self, ex: Executor) -> int:
        enabled = ex.enabled()
        return enabled[self.rng.randrange(len(enabled))]


class ReplayScheduler:
    """Replays a fixed prefix of thread choices, then follows a fallback.

    Raises :class:`~repro.errors.SchedulerError` if the recorded choice
    is not enabled — i.e. the schedule is infeasible for this program.
    """

    def __init__(self, prefix: Sequence[int], fallback=None, strict: bool = False):
        self.prefix: List[int] = list(prefix)
        self.pos = 0
        self.fallback = fallback or FirstEnabledScheduler()
        self.strict = strict

    def choose(self, ex: Executor) -> int:
        if self.pos < len(self.prefix):
            tid = self.prefix[self.pos]
            self.pos += 1
            if tid not in ex.enabled():
                raise SchedulerError(
                    f"replay diverged at step {self.pos - 1}: thread {tid} "
                    f"not enabled (enabled={ex.enabled()})"
                )
            return tid
        if self.strict:
            raise SchedulerError("strict replay ran past the recorded schedule")
        return self.fallback.choose(ex)


def _run(ex: Executor, scheduler) -> List[Event]:
    """Step ``ex`` to the end of its run, each choice from
    ``scheduler``, and return the stepped events."""
    events = []
    append = events.append
    while not ex.is_done():
        append(ex.step(scheduler.choose(ex)))
    return events


def execute(
    program: Program,
    scheduler=None,
    schedule: Optional[Sequence[int]] = None,
    max_events: int = 20_000,
) -> TraceResult:
    """Run ``program`` once to completion and return its trace, with
    the stepped events and the final object values.

    ``schedule`` (a list of thread ids) takes precedence over
    ``scheduler``; the remainder of the run after the recorded prefix is
    completed with the first-enabled policy.
    """
    if schedule is not None:
        scheduler = ReplayScheduler(schedule)
    elif scheduler is None:
        scheduler = FirstEnabledScheduler()
    ex = Executor(program, max_events=max_events)
    events = _run(ex, scheduler)
    result = ex.finish()
    result.events = events
    result.final_state = describe_state(ex.instance.registry)
    return result


def execute_exact(program: Program, schedule: Sequence[int],
                  max_events: int = 20_000) -> Optional[TraceResult]:
    """Run ``schedule`` (a complete list of thread choices) exactly as
    given and return its trace, or None when it is infeasible: a choice
    is not enabled, or the run ends before or after the schedule."""
    sched = ReplayScheduler(schedule, strict=True)
    try:
        result = execute(program, sched, max_events=max_events)
    except SchedulerError:
        return None
    return result if sched.pos == len(sched.prefix) else None


def is_feasible(program: Program, schedule: Sequence[int], max_events: int = 20_000) -> bool:
    """Whether ``schedule`` (a complete list of thread choices) can be
    executed against ``program`` exactly as given."""
    return execute_exact(program, schedule, max_events) is not None
