"""``repro.check`` — the one-call front door.

Every way of running the toolkit converges here: hand ``check()`` a
real-code function (explored through the shim frontend), a DSL
:class:`~repro.runtime.program.Program`, or a suite
:class:`~repro.suite.base.Benchmark`, and get back a typed
:class:`CheckResult` — bug or no bug, the minimized reproduction
schedule, a rendered trace, and the full
:class:`~repro.explore.base.ExplorationStats`.

    import repro

    def main():
        ...  # ordinary threading/queue code via repro.shim

    result = repro.check(main)
    if result.bug_found:
        print(result.summary())

Determinism: for a fixed target, explorer and seeds, two invocations
produce identical results (schedules, fingerprints, minimization) — the
explorers are deterministic and seeded randomness is the only
randomness there is.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field, replace
from typing import Any, Dict, List, Optional, Sequence, Tuple

from .errors import ReproError
from .explore.base import ExplorationLimits, ExplorationStats
from .explore.controller import (
    APPROXIMATE_EXPLORERS,
    SEEDED_EXPLORERS,
    STANDARD_EXPLORERS,
    run_single,
)
from .explore.minimize import minimize_schedule
from .runtime.program import Program


@dataclass
class CheckResult:
    """Outcome of one :func:`check` call — the single result currency
    shared by the CLI, the campaign driver and the analysis runners."""

    program_name: str
    explorer: str
    seeds: Tuple[int, ...]
    bug_found: bool
    error_kind: Optional[str] = None          #: exception type name
    error_message: Optional[str] = None
    schedule: Optional[List[int]] = None      #: schedule that found the bug
    minimized_schedule: Optional[List[int]] = None
    minimize_replays: int = 0
    minimize_reduction_pct: float = 0.0
    stats: Optional[ExplorationStats] = None
    trace: List[str] = field(default_factory=list)  #: rendered timeline
    elapsed: float = 0.0
    #: the explorer can miss states (lazy-dpor), so "no bug found" and
    #: the counts are not exhaustive
    approximate: bool = False

    @property
    def repro_schedule(self) -> Optional[List[int]]:
        """The schedule to hand to ``execute(program, schedule=...)`` —
        minimized when minimization succeeded, else the original."""
        if self.minimized_schedule is not None:
            return self.minimized_schedule
        return self.schedule

    def summary(self) -> str:
        lines = [
            f"program {self.program_name!r}: "
            + (f"BUG ({self.error_kind})" if self.bug_found else "no bug found")
        ]
        s = self.stats
        if s is not None:
            lines.append(
                f"  explorer {self.explorer}: {s.num_schedules} schedules, "
                f"{s.num_states} states, {s.num_events} events"
                + (" (limit hit)" if s.limit_hit else "")
            )
            if s.num_truncated:
                # a run that never ends is cut, not checked: without
                # this line a livelock would read as a clean verdict
                lines.append(
                    f"  truncated: {s.num_truncated} of "
                    f"{s.num_schedules} runs were cut at the "
                    "per-schedule event limit before finishing, so "
                    "they may not terminate and were not checked "
                    "past the cut"
                )
        if self.approximate:
            lines.append(
                f"  approximate: {self.explorer} can miss states, so the "
                "counts and a clean verdict are not exhaustive"
            )
        if self.bug_found:
            lines.append(f"  error: {self.error_message}")
            if self.schedule is not None:
                lines.append(f"  schedule: {len(self.schedule)} events")
            if self.minimized_schedule is not None:
                lines.append(
                    f"  minimized: {len(self.minimized_schedule)} events "
                    f"({self.minimize_reduction_pct:.0f}% shorter, "
                    f"{self.minimize_replays} replays)"
                )
        lines.append(f"  elapsed: {self.elapsed:.2f}s")
        return "\n".join(lines)

    def to_dict(self) -> Dict[str, Any]:
        return {
            "program": self.program_name,
            "explorer": self.explorer,
            "seeds": list(self.seeds),
            "bug_found": self.bug_found,
            "error_kind": self.error_kind,
            "error_message": self.error_message,
            "schedule": list(self.schedule) if self.schedule is not None else None,
            "minimized_schedule": (
                list(self.minimized_schedule)
                if self.minimized_schedule is not None else None
            ),
            "minimize_replays": self.minimize_replays,
            "minimize_reduction_pct": self.minimize_reduction_pct,
            "stats": self.stats.to_dict() if self.stats is not None else None,
            "trace": list(self.trace),
            "elapsed": self.elapsed,
            "approximate": self.approximate,
        }

    @classmethod
    def from_dict(cls, d: Dict[str, Any]) -> "CheckResult":
        stats = d.get("stats")
        return cls(
            program_name=d["program"],
            explorer=d["explorer"],
            seeds=tuple(d.get("seeds", ())),
            bug_found=d["bug_found"],
            error_kind=d.get("error_kind"),
            error_message=d.get("error_message"),
            schedule=(
                list(d["schedule"]) if d.get("schedule") is not None else None
            ),
            minimized_schedule=(
                list(d["minimized_schedule"])
                if d.get("minimized_schedule") is not None else None
            ),
            minimize_replays=d.get("minimize_replays", 0),
            minimize_reduction_pct=d.get("minimize_reduction_pct", 0.0),
            stats=ExplorationStats.from_dict(stats) if stats else None,
            trace=list(d.get("trace", ())),
            elapsed=d.get("elapsed", 0.0),
            approximate=d.get("approximate", False),
        )


def _resolve_program(target, name, args, kwargs) -> Program:
    if isinstance(target, Program):
        return target
    prog = getattr(target, "program", None)
    if isinstance(prog, Program):  # suite Benchmark (or anything shaped like it)
        return prog
    if callable(target):
        from .shim import program_from_function
        return program_from_function(target, name=name, args=args,
                                     kwargs=kwargs)
    raise TypeError(
        f"check() target must be a Program, a suite Benchmark or a "
        f"callable, not {type(target).__name__}"
    )


def check(
    target,
    *,
    explorer: str = "dpor",
    limits: Optional[ExplorationLimits] = None,
    max_schedules: Optional[int] = None,
    max_seconds: Optional[float] = None,
    seeds: Sequence[int] = (0,),
    name: Optional[str] = None,
    args: Tuple[Any, ...] = (),
    kwargs: Optional[dict] = None,
    minimize: bool = True,
    trace: bool = True,
    verify: bool = True,
    engine: Optional[str] = None,
) -> CheckResult:
    """Explore ``target`` and report what was found.

    ``target``: a plain function (checked through the shim frontend; may
    use ``repro.shim.threading``/``queue`` and ``@repro.shared``), a DSL
    :class:`Program`, or a suite :class:`Benchmark`.

    ``explorer`` is any registered explorer name (``dpor`` default, see
    ``python -m repro list``); for the seeded explorers (``random``,
    ``pct``) each seed in ``seeds`` is run and the stats are merged
    (an empty ``seeds`` raises ``ValueError``); the others run once.
    ``max_schedules``/``max_seconds`` are shorthand overrides applied on
    top of ``limits``.

    On a finding, the first error's schedule is minimized by replay
    (delta-debugging style) and re-executed to render a per-thread
    timeline of the shortest reproduction.

    ``engine`` pins the clock-engine backend (``"ref"``/``"native"``;
    ``None`` = auto) for the exploration; findings and statistics are
    identical either way (see :mod:`repro.core.engines`).
    """
    if explorer not in STANDARD_EXPLORERS:
        raise ValueError(
            f"unknown explorer {explorer!r}; available: "
            + ", ".join(sorted(STANDARD_EXPLORERS))
        )
    program = _resolve_program(target, name, args, kwargs)

    lim = limits or ExplorationLimits()
    if max_schedules is not None or max_seconds is not None:
        lim = replace(
            lim,
            max_schedules=(max_schedules if max_schedules is not None
                           else lim.max_schedules),
            max_seconds=(max_seconds if max_seconds is not None
                         else lim.max_seconds),
        )

    if explorer in SEEDED_EXPLORERS:
        seed_list = tuple(seeds)
        if not seed_list:
            raise ValueError(f"explorer {explorer!r} needs at least one seed")
    else:
        seed_list = tuple(seeds)[:1] or (0,)
    start = time.monotonic()
    stats: Optional[ExplorationStats] = None
    for seed in seed_list:
        run = run_single(program, explorer, lim, seed=seed, verify=verify,
                         engine=engine)
        if stats is None:
            stats = run
        else:
            stats.merge(run)  # merges in place and returns None

    finding = stats.errors[0] if stats.errors else None
    result = CheckResult(
        program_name=program.name,
        explorer=explorer,
        seeds=seed_list,
        bug_found=finding is not None,
        stats=stats,
        approximate=explorer in APPROXIMATE_EXPLORERS,
    )
    if finding is not None:
        result.error_kind = finding.kind
        result.error_message = finding.message
        result.schedule = list(finding.schedule)
        if minimize:
            try:
                mini = minimize_schedule(program, finding.schedule)
                result.minimized_schedule = list(mini.schedule)
                result.minimize_replays = mini.replays
                result.minimize_reduction_pct = mini.reduction_pct
            except (ValueError, ReproError):
                pass  # keep the original schedule as the reproduction
        if trace:
            result.trace = _render_repro_trace(program, result.repro_schedule,
                                               lim)
    result.elapsed = time.monotonic() - start
    return result


def _render_repro_trace(program: Program, schedule: Optional[List[int]],
                        lim: ExplorationLimits) -> List[str]:
    """Replay the reproduction schedule and render its timeline.

    Object names come from the *executed* run's registry: shim programs
    create their objects while running, so a fresh instantiation (as
    ``traceviz.names_of`` does) would see an empty registry.
    """
    if schedule is None:
        return []
    from .analysis.traceviz import render_timeline
    from .runtime.executor import Executor
    from .runtime.schedule import ReplayScheduler, _run

    ex = Executor(program, max_events=lim.max_events_per_schedule)
    try:
        events = _run(ex, ReplayScheduler(schedule))
    except ReproError as exc:
        return [f"(trace replay failed: {exc})"]
    result = ex.finish()
    result.events = events
    names = {o.oid: o.name for o in ex.instance.registry.objects}
    return render_timeline(result, names).splitlines()
