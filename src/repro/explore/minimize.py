"""Error-schedule minimisation (delta debugging for interleavings).

Explorers report a full thread-choice list for every property
violation; for debugging, shorter and less-preempted schedules are far
easier to read.  :func:`minimize_schedule` greedily shrinks a failing
schedule while preserving the error kind:

1. **chunk removal** — ddmin-style: drop contiguous chunks of choices
   (halving chunk sizes), replaying the remainder with a first-enabled
   fallback;
2. **preemption smoothing** — replace each context switch with a run of
   the previously scheduled thread where possible.

Replays that diverge (the truncated schedule is infeasible) simply
don't count as improvements — feasibility is re-checked by execution,
never assumed, so the result is always a real failing schedule.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional, Sequence

from ..errors import SchedulerError
from ..runtime.executor import Executor
from ..runtime.program import Program
from ..runtime.schedule import ReplayScheduler, _run
from ..runtime.trace import TraceResult


@dataclass
class MinimizationResult:
    """Outcome of shrinking one failing schedule."""

    schedule: List[int]
    error_kind: str
    replays: int
    original_length: int

    @property
    def reduction_pct(self) -> float:
        if self.original_length == 0:
            return 0.0
        saved = self.original_length - len(self.schedule)
        return 100.0 * saved / self.original_length


def _run_prefix(program: Program, prefix: Sequence[int],
                max_events: int) -> Optional[TraceResult]:
    """Replay ``prefix`` then continue first-enabled; None on divergence."""
    ex = Executor(program, max_events=max_events)
    try:
        _run(ex, ReplayScheduler(prefix))
        return ex.finish()
    except SchedulerError:
        return None
    finally:
        # candidate prefixes routinely diverge or end in an error with
        # other guests still suspended; close them explicitly so their
        # GC-time teardown cannot spray "ignored GeneratorExit" noise
        ex.close()


def _error_kind(result: Optional[TraceResult]) -> Optional[str]:
    if result is None or result.error is None:
        return None
    return type(result.error).__name__


def _preemptions(schedule: Sequence[int]) -> int:
    return sum(1 for a, b in zip(schedule, schedule[1:]) if a != b)


def minimize_schedule(
    program: Program,
    schedule: Sequence[int],
    max_replays: int = 2_000,
    max_events: int = 20_000,
) -> MinimizationResult:
    """Shrink ``schedule`` while keeping the same error kind.

    The returned schedule (a) reproduces an error of the same exception
    class, (b) is never longer than the input, and (c) usually has far
    fewer explicit choices and preemptions.
    """
    current = list(schedule)
    baseline = _run_prefix(program, current, max_events)
    kind = _error_kind(baseline)
    if kind is None:
        raise ValueError("the given schedule does not produce an error")
    replays = 1

    def still_fails(candidate: Sequence[int]) -> bool:
        nonlocal replays
        if replays >= max_replays:
            return False
        replays += 1
        return _error_kind(_run_prefix(program, candidate, max_events)) == kind

    # Phase 0: the error may need no steering at all.
    if still_fails([]):
        return MinimizationResult([], kind, replays, len(schedule))

    # Phase 1: ddmin-style chunk removal with shrinking chunk size.
    chunk = max(1, len(current) // 2)
    while chunk >= 1:
        improved = True
        while improved and replays < max_replays:
            improved = False
            i = 0
            while i < len(current):
                candidate = current[:i] + current[i + chunk:]
                if still_fails(candidate):
                    current = candidate
                    improved = True
                else:
                    i += chunk
        chunk //= 2

    # Phase 2: smooth preemptions — try extending each thread's run by
    # replacing the first choice after a switch with the previous thread.
    improved = True
    while improved and replays < max_replays:
        improved = False
        for i in range(1, len(current)):
            if current[i] != current[i - 1]:
                candidate = list(current)
                candidate[i] = current[i - 1]
                if _preemptions(candidate) < _preemptions(current) and \
                        still_fails(candidate):
                    current = candidate
                    improved = True
                    break

    return MinimizationResult(current, kind, replays, len(schedule))
