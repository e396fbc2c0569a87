"""Copy-on-write executor snapshots.

An :class:`ExecutorSnapshot` captures the complete state of an
:class:`~repro.runtime.executor.Executor` *between steps*, cheaply
enough to take at every branch point of an exploration.  The trick is
what it does **not** copy:

* Guest threads are Python generators — uncopyable — but they are pure
  coroutines: a guest body touches shared state only through executed
  operations, so its generator state is fully determined by the
  sequence of values the executor has ``send()``-ed into it.  The
  executor records that sequence per thread (the *tape*); a snapshot
  shares the live, append-only tape list and remembers only its
  current length (copy-on-write by append-only discipline).  Restoring
  builds fresh generators from a fresh
  :class:`~repro.runtime.program.ProgramInstance` and fast-forwards
  them by re-feeding the tape — no scheduling, no clock updates, no
  object operations, just C-level generator resumption.
* The :class:`~repro.core.hb.DualClockEngine` forks by sharing its
  published (immutable) clock snapshot tuples and copying only the two
  location tables and the short mutable working clocks — the engine's
  existing copy-on-publish discipline doing double duty.
* Shared objects snapshot their mutable state through
  ``snapshot_state()`` — a handful of scalars/short containers per
  object (see each primitive's implementation for its rule).
* The trace (when materialised) is a shallow list copy; events are
  immutable once stamped and stay shared.

``Executor.from_snapshot`` rebuilds a live executor from a snapshot;
the result is observably identical to replaying the snapshot's
schedule prefix from scratch — same enabled sets, fingerprints, state
hashes, schedules and statistics — which the equivalence suite
enforces over every sync primitive.

Snapshots are in-memory values (they hold live object references and
generator tapes); they are deliberately *not* serializable.  The
exploration-level cache that holds them is
:class:`repro.explore.snapshots.SnapshotTree`.
"""

from __future__ import annotations

from typing import Any, Dict, List, NamedTuple, Optional, Tuple

from ..core.hb import DualClockEngine


class ThreadRecord(NamedTuple):
    """Frozen per-thread state inside an :class:`ExecutorSnapshot`.

    ``tape`` is the thread's **live** send-value list, shared with the
    executor that produced the snapshot; only the first ``tape_len``
    entries belong to this snapshot (the list is append-only, so
    later appends by the live executor never invalidate them).
    ``needs_replay`` is False for finished threads that spawned no
    children — their generators are dead weight and are not rebuilt.
    The same applies to threads crashed by a runtime-injected guest
    error (``throw_exc``): the injected error is recorded here instead
    of on the tape, and a restore resynthesizes the pending EXIT from
    it rather than re-throwing into a rebuilt generator.

    A named tuple rather than a slotted class: explorers build a few
    of these per branch point on the snapshot hot path, and tuple
    construction runs at C speed.
    """

    name: str
    status: int
    tindex: int
    resuming: bool
    exit_recorded: bool
    crashed: bool
    wait_mutex_oid: Optional[int]
    tape: List[Any]
    tape_len: int
    spawn_count: int
    needs_replay: bool
    throw_exc: Optional[Exception] = None
    # virtual-time state of a timed op/park (see executor)
    deadline: Optional[int] = None
    wake_value: Optional[bool] = None
    parked_on_oid: Optional[int] = None


class ExecutorSnapshot:
    """Complete executor state at one scheduling point.

    Passive data: building one never runs guest code.  A snapshot can
    be restored any number of times (each restore forks the engine and
    re-feeds the tapes into fresh generators).
    """

    __slots__ = (
        "program", "schedule", "guest_failures", "trace", "exit_events",
        "thread_records", "spawn_origin", "object_states", "engine",
        "runnable", "static_threads", "restore_fields", "_approx_bytes",
    )

    def __init__(
        self,
        program,
        schedule: Tuple[int, ...],
        guest_failures: Tuple,
        trace: Tuple,
        exit_events: Dict,
        thread_records: List[ThreadRecord],
        spawn_origin: Dict[int, Tuple[int, int]],
        object_states: List[Any],
        engine: DualClockEngine,
        runnable: frozenset,
        static_threads: int,
        restore_fields: Dict[str, Any],
    ) -> None:
        self.program = program
        self.schedule = schedule
        self.guest_failures = guest_failures
        self.trace = trace
        self.exit_events = exit_events
        self.thread_records = thread_records
        self.spawn_origin = spawn_origin
        self.object_states = object_states
        self.engine = engine
        self.runnable = runnable
        self.static_threads = static_threads
        #: every scalar/shared executor attribute this snapshot pins
        #: (limits, flags, counters, error), prebuilt as a dict so a
        #: restore is one C-level ``__dict__.update`` plus the handful
        #: of per-restore values (instance, engine fork,
        #: mutable-container copies)
        self.restore_fields = restore_fields
        self._approx_bytes: Optional[int] = None

    @property
    def approx_bytes(self) -> int:
        """Rough resident size, computed lazily: only the snapshot
        tree's budget accounting reads it, and transient snapshots
        (:meth:`Executor.fork`) never pay for the estimate."""
        n = self._approx_bytes
        if n is None:
            n = self._approx_bytes = self._estimate_bytes()
        return n

    def _estimate_bytes(self) -> int:
        """Rough resident size, for the snapshot tree's memory budget.

        Deliberately approximate (CPython object overheads, shared
        tapes/events counted as owned): the budget bounds the order of
        magnitude of cache memory, it is not an allocator.
        """
        n = 400 + 8 * len(self.schedule)
        for rec in self.thread_records:
            n += 160 + 24 * rec.tape_len
        n += 72 * len(self.object_states)
        t = len(self.thread_records)
        entries, clocks = self.engine.table_stats()
        n += entries * (96 + 8 * t)
        n += 2 * clocks * (64 + 8 * t)
        n += 96 * len(self.trace)  # empty in fast-replay mode
        n += 88 * len(self.exit_events)
        return n
