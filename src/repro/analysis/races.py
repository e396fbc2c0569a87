"""Happens-before data-race detection.

A *data race* is a pair of accesses to the same plain shared location,
at least one a write, by different threads, unordered by the
**synchronisation happens-before** relation — program order plus edges
through synchronisation objects only (mutexes, rwlocks, condition
variables, semaphores, barriers, atomics, thread spawn/join).

Note this is a *different* relation from the paper's HBR: the paper's
condition (b) adds an edge for every conflicting data access, which by
construction totally orders all conflicts within a schedule (that is
what makes it identify equivalence classes).  Race detection instead
asks whether the *synchronisation* in the program orders the accesses;
the clocks are recomputed here, offline, from the recorded trace.

Combined with DPOR exploration (:func:`find_races`), detection is
systematic: one representative per HBR class suffices, because whether
two accesses are sync-ordered is a property of the class.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Set, Tuple

from ..core.events import DATA_KINDS, Event, MODIFYING_KINDS, OpKind
from ..core.vector_clock import VectorClock, tuple_leq
from ..explore.base import ExplorationLimits
from ..explore.dpor import DPORExplorer
from ..runtime.atomic import AtomicInt
from ..runtime.barrier import Barrier
from ..runtime.channel import Channel
from ..runtime.condvar import CondVar
from ..runtime.future import Future
from ..runtime.mutex import Mutex
from ..runtime.objects import ObjectRegistry, ThreadHandle
from ..runtime.program import Program
from ..runtime.rwlock import RWLock
from ..runtime.semaphore import Semaphore
from ..runtime.trace import TraceResult

#: Kinds that constitute plain data accesses (registry-derived, so a
#: new data primitive is race-analyzed without edits here).
_DATA_KINDS = DATA_KINDS

#: Thread-lifecycle kinds — always synchronisation.
_LIFECYCLE_KINDS = frozenset({OpKind.SPAWN, OpKind.EXIT, OpKind.JOIN})

_SYNC_TYPES = (Mutex, CondVar, Semaphore, Barrier, RWLock, AtomicInt,
               ThreadHandle, Channel, Future)


def sync_oids_of(registry: ObjectRegistry) -> Set[int]:
    """Object ids whose accesses create synchronisation edges."""
    return {o.oid for o in registry.objects if isinstance(o, _SYNC_TYPES)}


@dataclass(frozen=True)
class Race:
    """One sync-unordered conflicting access pair, identified by thread
    and per-thread operation index (stable across schedules)."""

    oid: int
    key: object
    first: Tuple[int, int, int]    # (tid, tindex, kind)
    second: Tuple[int, int, int]

    def describe(self, names: Optional[Dict[int, str]] = None) -> str:
        oname = (names or {}).get(self.oid, f"object {self.oid}")
        loc = f"{oname}" + (f"[{self.key!r}]" if self.key is not None else "")

        def side(s):
            return f"T{s[0]}.{s[1]} {OpKind(s[2]).name}"

        return f"race on {loc}: {side(self.first)} || {side(self.second)}"


def _sync_clocks(events: Sequence[Event], sync_oids: Set[int]) -> List[Tuple[int, ...]]:
    """Vector clocks of every event under sync-only happens-before."""
    thread_clocks: Dict[int, VectorClock] = {}
    access: Dict[Tuple[int, object], VectorClock] = {}
    modify: Dict[Tuple[int, object], VectorClock] = {}
    spawn_clock: Dict[int, Tuple[int, ...]] = {}  # child tid -> spawn clock
    out: List[Tuple[int, ...]] = []

    for e in events:
        tc = thread_clocks.get(e.tid)
        if tc is None:
            tc = VectorClock(e.tid + 1)
            thread_clocks[e.tid] = tc
            if e.tid in spawn_clock:
                tc.join_tuple_inplace(spawn_clock[e.tid])

        locs = []
        # Thread-lifecycle events always synchronise: their target is a
        # ThreadHandle allocated by the executor (not present in the
        # builder registry sync_oids are derived from).
        is_sync = e.oid in sync_oids or e.kind in _LIFECYCLE_KINDS
        if e.oid >= 0 and is_sync:
            locs.append(((e.oid, e.key), e.kind in MODIFYING_KINDS))
        if e.released_mutex_oid is not None:
            # WAIT behaves as an unlock of its paired mutex
            locs.append(((e.released_mutex_oid, None), True))

        for loc, modifying in locs:
            prev = access.get(loc) if modifying else modify.get(loc)
            if prev is not None:
                tc.join_inplace(prev)

        tc.tick(e.tid)
        snap = tc.snapshot()
        out.append(snap)

        for loc, modifying in locs:
            for table, update in ((access, True), (modify, modifying)):
                if update:
                    vc = table.get(loc)
                    if vc is None:
                        vc = VectorClock(len(snap))
                        table[loc] = vc
                    vc.join_tuple_inplace(snap)

        if e.kind == OpKind.SPAWN and isinstance(e.value, int):
            spawn_clock[e.value] = snap
    return out


def races_in_trace(result: TraceResult, sync_oids: Set[int]) -> List[Race]:
    """All sync-unordered conflicting data-access pairs in one schedule."""
    return _races_in(result.events, sync_oids)


def _races_in(events: Sequence[Event], sync_oids: Set[int]) -> List[Race]:
    clocks = _sync_clocks(events, sync_oids)
    by_loc: Dict[Tuple[int, object], List[Tuple[Event, Tuple[int, ...]]]] = {}
    for e, c in zip(events, clocks):
        if e.kind in _DATA_KINDS and e.oid >= 0 and e.oid not in sync_oids:
            by_loc.setdefault((e.oid, e.key), []).append((e, c))

    races: List[Race] = []
    for (oid, key), accesses in by_loc.items():
        for i, (a, ca) in enumerate(accesses):
            for b, cb in accesses[i + 1:]:
                if a.tid == b.tid:
                    continue
                if a.kind not in MODIFYING_KINDS and \
                        b.kind not in MODIFYING_KINDS:
                    continue
                # a precedes b in the schedule: they race iff the sync
                # relation does not order a before b
                if not tuple_leq(ca, cb):
                    first, second = sorted(
                        [(a.tid, a.tindex, int(a.kind)),
                         (b.tid, b.tindex, int(b.kind))]
                    )
                    races.append(Race(oid, key, first, second))
    return races


@dataclass
class RaceReport:
    """Outcome of a systematic race hunt."""

    program_name: str
    races: List[Race]
    schedules_explored: int
    exhausted: bool
    witness: Dict[Race, List[int]]

    @property
    def race_free(self) -> bool:
        return not self.races


def find_races(
    program: Program,
    limits: Optional[ExplorationLimits] = None,
) -> RaceReport:
    """Explore ``program`` with DPOR and collect every distinct race,
    each with a witness schedule."""
    limits = limits or ExplorationLimits(max_schedules=10_000)
    sync = sync_oids_of(program.instantiate().registry)

    seen: Set[Race] = set()
    order: List[Race] = []
    witness: Dict[Race, List[int]] = {}

    class _RaceCollectingDPOR(DPORExplorer):
        def _record_terminal(self, result: TraceResult) -> None:
            super()._record_terminal(result)
            # the finished run's events: DPOR's own trace
            for race in _races_in(self._trace, sync):
                if race not in seen:
                    seen.add(race)
                    order.append(race)
                    witness[race] = list(result.schedule)

    stats = _RaceCollectingDPOR(program, limits).run()
    return RaceReport(
        program_name=program.name,
        races=order,
        schedules_explored=stats.num_schedules,
        exhausted=stats.exhausted,
        witness=witness,
    )


def race_summary(report: RaceReport,
                 names: Optional[Dict[int, str]] = None) -> str:
    """Human-readable multi-line summary of a race hunt."""
    lines = [
        f"{report.program_name}: "
        f"{'race-free' if report.race_free else f'{len(report.races)} race(s)'} "
        f"({report.schedules_explored} schedules, "
        f"{'exhaustive' if report.exhausted else 'budget-limited'})"
    ]
    for race in report.races:
        lines.append(f"  {race.describe(names)}")
        lines.append(f"    witness schedule: {report.witness[race]}")
    return "\n".join(lines)
