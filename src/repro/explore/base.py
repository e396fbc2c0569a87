"""Explorer framework: limits, statistics and the base class.

An explorer enumerates schedules of one program.  All concrete
explorers are *stateless* in the SCT sense: each schedule replays the
prefix of thread choices that leads to its branch point (the standard
architecture of Verisoft/CHESS-style tools).  The executor it replays
on comes from one acquire/retire path (:meth:`Explorer._executor_at`,
:meth:`Explorer._retire`): the executor the previous schedule left
standing at exactly the requested prefix (held when a cache probe
pruned that schedule's last choice before it ran), else a restored
snapshot from the *spine*: the exploration's initial state followed by
the branch points of the current search path that pending work will
resume from.  Restores are observably identical to a freshly built
program instance replaying the prefix.

Statistics mirror the quantities of the paper's evaluation: the number
of schedules executed, and the numbers of distinct terminal HBRs,
terminal lazy HBRs and final states among completed schedules.  The
paper's inequality

    #states <= #lazy HBRs <= #HBRs <= #schedules

is checked by :meth:`ExplorationStats.verify_inequality` (and enforced
in the integration tests).

Beyond the counts, the statistics carry the underlying fingerprint
*sets* (``hbr_fps``, ``lazy_fps``, ``state_hashes``).  Sets — unlike
counts — merge: :meth:`ExplorationStats.merge` deterministically
combines the results of disjoint exploration shards (see
:meth:`repro.explore.frontier.Frontier.split`) into the statistics one
unsplit run would have produced.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from typing import Any, Callable, Dict, List, Optional, Set, Tuple

from ..errors import GuestError
from ..runtime.executor import Executor
from ..runtime.program import Program
from ..runtime.snapshot import ExecutorSnapshot
from ..runtime.trace import TraceResult

DEFAULT_SCHEDULE_LIMIT = 100_000

#: A mid-schedule wall-clock deadline check every scheduling point would
#: be noise on the replay hot path; every N points bounds the overrun
#: of one long schedule to N steps while keeping the check invisible in
#: the profile.
DEADLINE_CHECK_EVERY = 32


@dataclass
class ExplorationLimits:
    """Hard bounds on one exploration."""

    max_schedules: int = DEFAULT_SCHEDULE_LIMIT
    max_seconds: Optional[float] = None
    max_events_per_schedule: int = 20_000


@dataclass
class ErrorFinding:
    """One distinct property violation and a schedule reproducing it."""

    kind: str
    message: str
    schedule: List[int]


def _json_safe(value: Any) -> bool:
    """Is ``value`` representable in JSON without loss (scalars plus
    arbitrarily nested lists/dicts of scalars with string keys)?"""
    if isinstance(value, (bool, int, float, str)) or value is None:
        return True
    if isinstance(value, (list, tuple)):
        return all(_json_safe(v) for v in value)
    if isinstance(value, dict):
        return all(
            isinstance(k, str) and _json_safe(v) for k, v in value.items()
        )
    return False


@dataclass
class ExplorationStats:
    """Outcome of one exploration run."""

    program_name: str
    explorer_name: str
    num_schedules: int = 0          #: executions performed (incl. pruned)
    num_complete: int = 0           #: executions that ran to a terminal state
    num_pruned: int = 0             #: executions cut short by caching/sleep sets
    num_truncated: int = 0          #: executions cut at max_events_per_schedule
    num_hbrs: int = 0               #: distinct terminal (regular) HBRs
    num_lazy_hbrs: int = 0          #: distinct terminal lazy HBRs
    num_states: int = 0             #: distinct terminal program states
    num_events: int = 0             #: total events executed
    errors: List[ErrorFinding] = field(default_factory=list)
    limit_hit: bool = False         #: stopped by a limit, not exhaustion
    exhausted: bool = False         #: the full reduced state space was covered
    elapsed: float = 0.0
    extra: Dict[str, Any] = field(default_factory=dict)
    #: the distinct-fingerprint sets behind the ``num_*`` counts.
    #: Serialized (sorted) by :meth:`to_dict` so campaign shards can be
    #: union-merged instead of merely summed.
    hbr_fps: Set[int] = field(default_factory=set)
    lazy_fps: Set[int] = field(default_factory=set)
    state_hashes: Set[int] = field(default_factory=set)

    def verify_inequality(self) -> None:
        """Assert the paper's Section 3 inequality chain."""
        if not (
            self.num_states <= self.num_lazy_hbrs <= self.num_hbrs
            <= self.num_schedules
        ):
            raise AssertionError(
                f"inequality violated for {self.program_name} / "
                f"{self.explorer_name}: states={self.num_states} "
                f"lazy={self.num_lazy_hbrs} hbrs={self.num_hbrs} "
                f"schedules={self.num_schedules}"
            )

    def summary(self) -> str:
        mark = "!" if self.limit_hit else ("*" if self.exhausted else "")
        # named only when runs were cut at max_events_per_schedule, so
        # every other summary reads as before
        trunc = (f" trunc={self.num_truncated}" if self.num_truncated
                 else "")
        return (
            f"{self.program_name:<28} {self.explorer_name:<14} "
            f"sched={self.num_schedules:<7} hbrs={self.num_hbrs:<7} "
            f"lazy={self.num_lazy_hbrs:<7} states={self.num_states:<7} "
            f"errors={len(self.errors)}{trunc} {mark}"
        )

    def to_dict(self) -> Dict[str, Any]:
        """JSON-serialisable form, for persisting experiment results.

        ``extra`` values that are JSON-safe (scalars and nested
        lists/dicts of scalars) round-trip faithfully; anything else
        (arbitrary objects) is dropped.  The fingerprint sets are
        emitted sorted, so equal sets serialize identically.
        """
        return {
            "program": self.program_name,
            "explorer": self.explorer_name,
            "num_schedules": self.num_schedules,
            "num_complete": self.num_complete,
            "num_pruned": self.num_pruned,
            "num_truncated": self.num_truncated,
            "num_hbrs": self.num_hbrs,
            "num_lazy_hbrs": self.num_lazy_hbrs,
            "num_states": self.num_states,
            "num_events": self.num_events,
            "errors": [
                {"kind": e.kind, "message": e.message,
                 "schedule": e.schedule}
                for e in self.errors
            ],
            "limit_hit": self.limit_hit,
            "exhausted": self.exhausted,
            "elapsed": self.elapsed,
            "extra": {k: v for k, v in self.extra.items()
                      if _json_safe(v)},
            "hbr_fps": sorted(self.hbr_fps),
            "lazy_fps": sorted(self.lazy_fps),
            "state_hashes": sorted(self.state_hashes),
        }

    @classmethod
    def from_dict(cls, payload: Dict[str, Any]) -> "ExplorationStats":
        """Inverse of :meth:`to_dict` (modulo non-JSON-safe ``extra``
        values) — used by the campaign checkpoint store to resume runs."""
        return cls(
            program_name=payload["program"],
            explorer_name=payload["explorer"],
            num_schedules=payload.get("num_schedules", 0),
            num_complete=payload.get("num_complete", 0),
            num_pruned=payload.get("num_pruned", 0),
            num_truncated=payload.get("num_truncated", 0),
            num_hbrs=payload.get("num_hbrs", 0),
            num_lazy_hbrs=payload.get("num_lazy_hbrs", 0),
            num_states=payload.get("num_states", 0),
            num_events=payload.get("num_events", 0),
            errors=[
                ErrorFinding(e["kind"], e["message"], list(e["schedule"]))
                for e in payload.get("errors", [])
            ],
            limit_hit=payload.get("limit_hit", False),
            exhausted=payload.get("exhausted", False),
            elapsed=payload.get("elapsed", 0.0),
            extra=dict(payload.get("extra", {})),
            hbr_fps=set(payload.get("hbr_fps", ())),
            lazy_fps=set(payload.get("lazy_fps", ())),
            state_hashes=set(payload.get("state_hashes", ())),
        )

    def has_consistent_sets(self) -> bool:
        """Do the fingerprint sets back the counts?  False for legacy
        payloads that carried counts only — those cannot be merged."""
        return (
            self.num_hbrs == len(self.hbr_fps)
            and self.num_lazy_hbrs == len(self.lazy_fps)
            and self.num_states == len(self.state_hashes)
        )

    def merge(self, other: "ExplorationStats") -> None:
        """Union-merge ``other`` into ``self`` (in place).

        Both sides must carry set payloads consistent with their counts
        (:meth:`has_consistent_sets`); additive counters sum, the
        fingerprint/error *sets* union, and the ``num_*`` distinct
        counts are recomputed from the merged sets — so merging the
        results of disjoint shards reproduces exactly the distinct
        counts of the equivalent unsplit run.  Deterministic for a
        fixed merge order.
        """
        if not (self.has_consistent_sets() and other.has_consistent_sets()):
            raise ValueError(
                "cannot merge ExplorationStats without consistent "
                "fingerprint-set payloads (legacy counts-only data?)"
            )
        self.num_schedules += other.num_schedules
        self.num_complete += other.num_complete
        self.num_pruned += other.num_pruned
        self.num_truncated += other.num_truncated
        self.num_events += other.num_events
        self.hbr_fps |= other.hbr_fps
        self.lazy_fps |= other.lazy_fps
        self.state_hashes |= other.state_hashes
        self.num_hbrs = len(self.hbr_fps)
        self.num_lazy_hbrs = len(self.lazy_fps)
        self.num_states = len(self.state_hashes)
        seen = {(e.kind, e.message) for e in self.errors}
        for e in other.errors:
            if (e.kind, e.message) not in seen:
                seen.add((e.kind, e.message))
                self.errors.append(
                    ErrorFinding(e.kind, e.message, list(e.schedule))
                )
        self.limit_hit = self.limit_hit or other.limit_hit
        self.exhausted = self.exhausted and other.exhausted
        self.elapsed += other.elapsed
        for key, value in other.extra.items():
            mine = self.extra.get(key)
            if (isinstance(value, (int, float))
                    and not isinstance(value, bool)
                    and isinstance(mine, (int, float))
                    and not isinstance(mine, bool)):
                self.extra[key] = mine + value
            elif key not in self.extra:
                self.extra[key] = value


class SnapshotCounters:
    """What prefix sharing did in one exploration, for perf reports
    (the repository benchmark reads :meth:`stats`).

    ``resumed_events`` counts prefix events *not* re-executed because
    the explorer restored a spine snapshot or was handed an executor
    already standing there; ``replayed_events`` counts prefix events
    replayed the hard way.  Events no schedule ran before (the kernel's
    work items place at their parent, so their own last step is one)
    are neither.  A restore for a non-empty prefix is a hit when it
    starts past the initial state, else a miss; ``inserts`` counts
    branch points pushed onto the spine."""

    __slots__ = ("hits", "misses", "inserts", "resumed_events",
                 "replayed_events")

    def __init__(self) -> None:
        self.hits = self.misses = self.inserts = 0
        self.resumed_events = self.replayed_events = 0

    def stats(self) -> Dict[str, Any]:
        probes = self.hits + self.misses
        return {
            "hits": self.hits,
            "misses": self.misses,
            "hit_rate": (self.hits / probes) if probes else 0.0,
            "inserts": self.inserts,
            "resumed_events": self.resumed_events,
            "replayed_events": self.replayed_events,
            # the spine never evicts, rejects or budgets bytes; the
            # keys stay for readers of the former snapshot cache
            "evictions": 0,
            "rejected": 0,
            "bytes_high_water": 0,
        }


class Explorer:
    """Base class: bookkeeping shared by every strategy."""

    name = "base"

    #: Clock-engine backend for the executors this explorer builds
    #: (``"ref"``/``"native"``/``None`` = auto; see
    #: :mod:`repro.core.engines`).  Set by ``make_explorer(engine=...)``
    #: or directly on the instance before :meth:`run`.
    engine: Optional[str] = None

    def __init__(
        self,
        program: Program,
        limits: Optional[ExplorationLimits] = None,
    ) -> None:
        self.program = program
        self.limits = limits or ExplorationLimits()
        self._error_kinds: Set[Tuple[str, str]] = set()
        self.stats = ExplorationStats(program.name, self.name)
        #: prefix-sharing counters; only explorers that replay
        #: non-empty prefixes (the kernel family and DPOR) move them
        self.snapshot_tree = SnapshotCounters()
        #: the spine: the depth-0 snapshot of the exploration's first
        #: executor, then snapshots of branch points on the current
        #: search path, strictly deeper each, every one a prefix of the
        #: next (see :meth:`_executor_at` and :meth:`_capture`)
        self._spine: List[ExecutorSnapshot] = []
        #: the last retired executor's instance and threads, handed to
        #: the next restore (see Executor.release_instance)
        self._spare = None
        #: ``(prefix, executor)``: an executor :meth:`_retire` held
        #: because it still stands at ``prefix``, served as-is by the
        #: next :meth:`_executor_at` for exactly that prefix
        self._held: Optional[Tuple[Tuple[int, ...], Executor]] = None
        self._deadline: Optional[float] = None
        #: wall-clock already consumed by a restored run; counted
        #: against ``max_seconds`` and added to the final ``elapsed``
        self._elapsed_base: float = 0.0
        #: periodic checkpoint callback (see :meth:`set_checkpoint`);
        #: only explorers with a ``snapshot`` method honour it
        self._checkpoint_fn: Optional[Callable[[Dict[str, Any]], None]] = None
        self._checkpoint_interval: float = 2.0
        self._last_checkpoint: float = 0.0
        self._points_since_deadline_check = 0
        #: between-schedules control callback (see :meth:`set_control`);
        #: unlike checkpoints it runs at EVERY schedule boundary — the
        #: callback does its own rate limiting — so callers with
        #: deterministic triggers (fault injection, steal commands at a
        #: chosen schedule count) fire at exact points
        self._control_fn: Optional[Callable[["Explorer"], None]] = None
        #: cooperative stop flag (see :meth:`request_stop`)
        self._stop_requested = False

    # -- views kept for tests and analysis tooling --------------------------
    @property
    def _state_hashes(self) -> Set[int]:
        return self.stats.state_hashes

    # -- hooks for subclasses ----------------------------------------------
    def _new_executor(self) -> Executor:
        return Executor(
            self.program,
            max_events=self.limits.max_events_per_schedule,
            engine=self.engine,
        )

    # -- the acquire/retire path ----------------------------------------------
    def _executor_at(
        self, prefix: Tuple[int, ...]
    ) -> Tuple[Executor, int]:
        """An executor placed at ``prefix[:depth]``, and ``depth``; the
        caller replays ``prefix[depth:]``.

        The executor :meth:`_retire` held is served as-is when it
        stands at exactly ``prefix`` (depth ``len(prefix)``), and
        otherwise recycled as the spare.  Else the spine gives up the
        branch points the search has left: entries are popped until the
        top's schedule is a prefix of ``prefix``, and the top is
        restored.  The initial state at the bottom is a prefix of
        everything, so it is never popped.  This one check serves
        depth-first pops (the top is usually the parent itself), DPOR's
        re-chosen top node, breadth-first seeding and restored, split
        or stolen frontiers alike.  Only the exploration's first
        schedule builds a fresh executor, whose depth-0 state starts
        the spine.  Every restore recycles the spare instance, and the
        counters record the resumed (held or restored) and the
        to-be-replayed prefix events.  Restores are observably
        identical to replaying from a fresh executor (the snapshot
        equivalence guarantee)."""
        counters = self.snapshot_tree
        held = self._held
        if held is not None:
            self._held = None
            if held[0] == prefix:
                counters.resumed_events += len(prefix)
                return held[1], len(prefix)
            self._spare = held[1].release_instance()
        spine = self._spine
        if spine:
            snap = spine[-1]
            depth = len(snap.schedule)
            while snap.schedule != prefix[:depth]:
                spine.pop()
                snap = spine[-1]
                depth = len(snap.schedule)
        else:
            snap, depth = None, 0
        if prefix:
            if depth:
                counters.hits += 1
            else:
                counters.misses += 1
            counters.resumed_events += depth
            counters.replayed_events += len(prefix) - depth
        if snap is None:
            ex = self._new_executor()
            spine.append(ex.snapshot())
            return ex, 0
        spare, self._spare = self._spare, None
        return Executor.from_snapshot(snap, reuse=spare), depth

    def _capture(self, ex: Executor) -> None:
        """Push ``ex``'s state onto the spine: a branch point that
        pending work will resume from.  ``ex`` descends from the last
        :meth:`_executor_at`, so every entry is a prefix of its
        schedule, and a top as deep as ``ex`` already holds this very
        state.  This is the spine's one push after the initial state:
        without it, every restore starts from the initial state."""
        if len(self._spine[-1].schedule) != len(ex.schedule):
            self._spine.append(ex.snapshot())
            self.snapshot_tree.inserts += 1

    def _retire(self, ex: Executor,
                at: Optional[Tuple[int, ...]] = None) -> None:
        """Hand a finished schedule's executor back: its instance and
        threads become the spare for the next restore (``None`` for
        programs that cannot be pooled).  ``at`` holds ``ex`` instead,
        for an executor still standing at that prefix (a schedule
        pruned before its last choice ran), so the next acquire at the
        same prefix needs no restore.  The caller must not use ``ex``
        afterwards."""
        if at is not None:
            self._held = (at, ex)
        else:
            self._spare = ex.release_instance()

    def _record_terminal(self, result: TraceResult) -> None:
        """Account for one finished execution.  A run cut at
        ``max_events_per_schedule`` counts in ``num_truncated`` only:
        its partial state is not a terminal state."""
        st = self.stats
        if result.truncated:
            st.num_truncated += 1
        else:
            st.num_complete += 1
            st.hbr_fps.add(result.hbr_fp)
            st.lazy_fps.add(result.lazy_fp)
            st.state_hashes.add(result.state_hash)
            st.num_hbrs = len(st.hbr_fps)
            st.num_lazy_hbrs = len(st.lazy_fps)
            st.num_states = len(st.state_hashes)
        if result.error is not None:
            self._record_error(result.error, result.schedule)

    def _record_error(self, error: GuestError, schedule: List[int]) -> None:
        key = (type(error).__name__, str(error))
        if key not in self._error_kinds:
            self._error_kinds.add(key)
            self.stats.errors.append(
                ErrorFinding(key[0], key[1], list(schedule))
            )

    def _schedule_started(self) -> None:
        self.stats.num_schedules += 1

    def _budget_exceeded(self) -> bool:
        # every explorer loop probes the budget between schedules, so
        # this is the one uniform between-schedules point: run the
        # control callback (heartbeats, steal commands, fault
        # injection) first — it may request the stop honoured below
        self._maybe_control()
        if self._stop_requested:
            self.stats.limit_hit = True
            return True
        if self.stats.num_schedules >= self.limits.max_schedules:
            self.stats.limit_hit = True
            return True
        if self._deadline is not None and time.monotonic() > self._deadline:
            self.stats.limit_hit = True
            return True
        return False

    def _deadline_exceeded_midschedule(self) -> bool:
        """Cheap per-scheduling-point deadline probe.

        ``_budget_exceeded`` only runs between schedules, so one long
        schedule used to overrun ``max_seconds`` unboundedly.  Explorers
        call this at every scheduling point; it samples the clock every
        :data:`DEADLINE_CHECK_EVERY` points and flags ``limit_hit`` when
        the deadline has passed, letting the caller abandon the
        in-flight schedule.
        """
        if self._deadline is None:
            return False
        self._points_since_deadline_check += 1
        if self._points_since_deadline_check < DEADLINE_CHECK_EVERY:
            return False
        self._points_since_deadline_check = 0
        if time.monotonic() > self._deadline:
            self.stats.limit_hit = True
            return True
        return False

    def _restore_stats(self, payload: Optional[Dict[str, Any]]) -> None:
        """Shared restore() plumbing for resumable explorers: rebuild
        the statistics (and derived error-dedup set) from a snapshot
        payload and charge the restored elapsed time against this
        run's wall-clock budget.  The limit/exhaustion flags are
        cleared — a snapshot taken at a budget boundary resumes
        cleanly under a laxer budget, and ``run()`` re-derives them."""
        if payload is None:
            return
        self.stats = ExplorationStats.from_dict(payload)
        self.stats.program_name = self.program.name
        self.stats.explorer_name = self.name
        self._error_kinds = {
            (e.kind, e.message) for e in self.stats.errors
        }
        self._elapsed_base = self.stats.elapsed
        self.stats.limit_hit = False
        self.stats.exhausted = False

    # -- checkpointing ------------------------------------------------------
    def set_checkpoint(
        self,
        fn: Callable[[Dict[str, Any]], None],
        interval: float = 2.0,
    ) -> None:
        """Install a periodic checkpoint callback.

        Explorers that support serialization (those with a
        ``snapshot()`` method — the kernel family and DPOR) call
        ``fn(self.snapshot())`` between schedules, at most every
        ``interval`` seconds.  Explorers without snapshot support
        silently ignore the callback.
        """
        self._checkpoint_fn = fn
        self._checkpoint_interval = interval

    def _maybe_checkpoint(self) -> None:
        if self._checkpoint_fn is None:
            return
        now = time.monotonic()
        if now - self._last_checkpoint < self._checkpoint_interval:
            return
        self._last_checkpoint = now
        self._checkpoint_fn(self.snapshot())  # type: ignore[attr-defined]

    # -- external control ---------------------------------------------------
    def set_control(self, fn: Callable[["Explorer"], None]) -> None:
        """Install a between-schedules control callback.

        ``fn(self)`` runs at every schedule boundary of explorers that
        support it (the kernel family and DPOR — the same set that
        honours checkpoints).  The distributed campaign worker uses it
        to heartbeat its lease, answer steal commands by splitting the
        live frontier, and let the chaos harness fire deterministic
        faults at exact schedule counts.  The callback may call
        :meth:`request_stop` to end the run cooperatively.
        """
        self._control_fn = fn

    def _maybe_control(self) -> None:
        if self._control_fn is not None:
            self._control_fn(self)

    def request_stop(self) -> None:
        """Ask the run to stop at the next schedule boundary.

        The run ends as if a budget limit fired (``limit_hit`` set,
        frontier preserved), so a ``snapshot()`` taken afterwards
        resumes exactly where the stop landed.  Used by the
        distributed worker to abandon a task whose lease the
        coordinator revoked.
        """
        self._stop_requested = True

    # -- template method ------------------------------------------------------
    def run(self) -> ExplorationStats:
        start = time.monotonic()
        if self.limits.max_seconds is not None:
            self._deadline = start + (
                self.limits.max_seconds - self._elapsed_base
            )
        self._last_checkpoint = start
        try:
            self._explore()
        finally:
            self.stats.elapsed = (
                self._elapsed_base + time.monotonic() - start
            )
        return self.stats

    def _explore(self) -> None:  # pragma: no cover - abstract
        raise NotImplementedError
