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
  current length (copy-on-write by append-only discipline).  A
  restore rebuilds every thread from that tape, in one of two ways.
  On a recycled :class:`~repro.runtime.program.ProgramInstance` it
  walks the instance's op-trie (:mod:`repro.runtime.optrie`) along
  the tape, one dict hop per send and no generator at all; a thread
  whose history leaves the trie, and every thread on a fresh
  instance, gets a fresh generator fast-forwarded by re-feeding the
  tape.  Neither runs scheduling, clock updates or object operations.
* The :class:`~repro.core.hb.DualClockEngine` forks by sharing its
  published (immutable) clock snapshot tuples and copying only the two
  location tables and the short mutable working clocks — the engine's
  existing copy-on-publish discipline doing double duty.
* Shared objects snapshot their mutable state through
  ``snapshot_state()`` — a handful of scalars/short containers per
  object (see each primitive's implementation for its rule).
* The schedule and the trace (when materialised) are shallow copies;
  events are immutable once stamped and stay shared.  These two are
  the part of a snapshot that grows with its depth.

``Executor.from_snapshot`` rebuilds a live executor from a snapshot;
the result is observably identical to replaying the snapshot's
schedule prefix from scratch — same enabled sets, fingerprints, state
hashes, schedules and statistics — which the equivalence suite
enforces over every sync primitive.

Snapshots are in-memory values (they hold live object references and
generator tapes); they are deliberately *not* serializable.  An
exploration holds them on its spine, one per branch point of the
current search path that pending work will resume from (see
:meth:`repro.explore.base.Explorer._executor_at`).
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
    rebuilds every thread from the op-trie or its tape).  What a
    restore can derive is not stored: the runnable set is the records
    whose status is RUNNABLE, a crashed run's reported error is the
    lowest crashed tid's ``throw_exc``, and the event count is the
    schedule's length.
    """

    __slots__ = (
        "program", "schedule", "trace", "thread_records", "spawn_origin",
        "object_states", "engine", "restore_fields",
    )

    def __init__(
        self,
        program,
        schedule: Tuple[int, ...],
        trace: Tuple,
        thread_records: List[ThreadRecord],
        spawn_origin: Dict[int, Tuple[int, int]],
        object_states: List[Any],
        engine: DualClockEngine,
        restore_fields: Dict[str, Any],
    ) -> None:
        self.program = program
        self.schedule = schedule
        self.trace = trace
        self.thread_records = thread_records
        self.spawn_origin = spawn_origin
        self.object_states = object_states
        self.engine = engine
        #: every scalar executor attribute this snapshot pins (limits,
        #: flags, counters, error, the static thread count), prebuilt
        #: as a dict so a restore is one C-level ``__dict__.update``
        #: plus the handful of per-restore values (program, instance,
        #: engine fork, mutable-container copies)
        self.restore_fields = restore_fields
