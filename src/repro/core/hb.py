"""Online computation of the regular and lazy happens-before relations.

The :class:`DualClockEngine` is fed every event as the executor performs
it and maintains, in a single pass:

* per-thread vector clocks under the **regular** HBR (condition (b):
  same variable *or mutex*, at least one modification);
* per-thread vector clocks under the **lazy** HBR (condition (b'):
  same *non-mutex* variable, at least one modification — lock/unlock
  events induce no inter-thread edges);
* incremental fingerprints of both relations
  (:class:`~repro.core.fingerprint.FingerprintChain`).

Runtime-enforced synchronisation that is *not* a data conflict —
spawn/join edges, condition-variable wakeups, semaphore hand-offs,
barrier releases — is injected through :meth:`add_release_edge` and
participates in **both** relations: the lazy HBR only drops edges whose
sole cause is mutual exclusion on a mutex (paper, Section 2).

Per-object state follows the classic two-clock scheme: ``A[o]`` is the
join of the clocks of all accesses to ``o`` so far and ``M[o]`` the join
of the modifying accesses.  A read must happen-after all prior
modifications (join ``M[o]``); a modification must happen-after all
prior accesses (join ``A[o]``).  This yields exactly the transitive
closure of program order plus condition-(b) edges.

Hot-path layout (the replay loop executes :meth:`observe` once per
event, thousands of times per schedule):

* thread clocks are plain ``list``-of-int, mutated in place
  (:func:`~repro.core.vector_clock.join_tuple_into`); the only
  allocation per event per relation is the published snapshot tuple —
  copy-on-publish;
* the ``A``/``M`` tables store published *tuples*, not clock objects.
  A modifying access first joins ``A[o]`` into its thread clock and
  then ticks, so its snapshot dominates both table entries and can
  simply **replace** them — no join, no allocation.  Only the
  ``A[o]`` update of a non-modifying access (concurrent readers) can
  need a real join.

Edge classification is driven by the per-kind happens-before classes
(:class:`~repro.core.events.HBClass`, declared in
:data:`~repro.core.events.KIND_SPEC`): the ``IS_MODIFYING``/
``IS_MUTEX`` tables indexed below are derived from those declarations,
so the engine never enumerates primitive kinds — a new primitive
participates in both relations by declaring its classes.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Sequence, Tuple

from .events import Event, IS_MODIFYING, IS_MUTEX
from .fingerprint import CanonicalHBR, FingerprintChain
from .vector_clock import (
    VectorClock,
    join_tuple_into,
    tuple_dominates,
    tuple_join,
)


class _ClockSide:
    """Clock state for one of the two relations (regular or lazy).

    ``thread_clocks`` are raw int lists (mutable working clocks);
    ``access``/``modify`` map a location to the published snapshot
    tuple of the join of its (modifying) accesses.
    """

    __slots__ = ("thread_clocks", "access", "modify", "chain", "canonical")

    def __init__(self, canonical: bool) -> None:
        self.thread_clocks: List[List[int]] = []
        self.access: Dict[Tuple[int, object], Tuple[int, ...]] = {}
        self.modify: Dict[Tuple[int, object], Tuple[int, ...]] = {}
        self.chain = FingerprintChain()
        self.canonical: Optional[CanonicalHBR] = CanonicalHBR() if canonical else None

    def ensure_thread(self, tid: int) -> None:
        clocks = self.thread_clocks
        while len(clocks) <= tid:
            clocks.append([0] * (len(clocks) + 1))
        self.chain.ensure_thread(tid)

    def fork(self) -> "_ClockSide":
        """An independent copy of this side's state.

        Cheap by construction: the ``access``/``modify`` tables hold
        *published* snapshot tuples — immutable by the engine's
        copy-on-publish discipline — so forking shares every tuple and
        copies only the two dicts, the short mutable working clocks and
        the fingerprint chain."""
        side = _ClockSide.__new__(_ClockSide)
        side.thread_clocks = [list(c) for c in self.thread_clocks]
        side.access = dict(self.access)
        side.modify = dict(self.modify)
        side.chain = self.chain.fork()
        side.canonical = None
        return side


class DualClockEngine:
    """Computes regular and lazy HB clocks plus fingerprints, online.

    Parameters
    ----------
    canonical:
        When true, also build the exact :class:`CanonicalHBR` forms
        (slower; used by theorem checkers and tests, never by the
        exploration hot path).
    """

    backend = "ref"

    __slots__ = ("regular", "lazy", "_pending_sync", "_canonical")

    def __init__(self, canonical: bool = False) -> None:
        self._canonical = canonical
        self.regular = _ClockSide(canonical)
        self.lazy = _ClockSide(canonical)
        # tid -> list of (regular snapshot, lazy snapshot) to join before
        # the thread's next event (release edges from other threads).
        self._pending_sync: Dict[int, List[Tuple[Tuple[int, ...], Tuple[int, ...]]]] = {}

    # ------------------------------------------------------------------
    def fork(self) -> "DualClockEngine":
        """An independent engine continuing from this one's state.

        Both relations fork via :meth:`_ClockSide.fork` (published
        tuples shared, mutable working state copied); pending release
        edges are copied as well.  Canonical engines do not fork — the
        exact HBR forms are test/analysis machinery, never part of the
        exploration hot path that snapshots executors."""
        if self._canonical:
            raise ValueError("canonical engines cannot fork")
        eng = DualClockEngine.__new__(DualClockEngine)
        eng._canonical = False
        eng.regular = self.regular.fork()
        eng.lazy = self.lazy.fork()
        eng._pending_sync = {
            tid: list(edges) for tid, edges in self._pending_sync.items()
        }
        return eng

    # ------------------------------------------------------------------
    def reserve(self, n: int) -> None:
        """Pre-size both relations for ``n`` statically known threads —
        one bulk call at executor construction instead of per-thread
        incremental growth (executors are built once per schedule)."""
        if n > 0:
            self.regular.ensure_thread(n - 1)
            self.lazy.ensure_thread(n - 1)

    def register_thread(self, tid: int, parent_spawn_event: Optional[Event] = None) -> None:
        """Declare a thread.  If it was spawned by another thread, its
        clock starts from the spawning event's clock (a spawn edge)."""
        if parent_spawn_event is not None:
            assert parent_spawn_event.clock is not None
            self.register_thread_clocks(
                tid, parent_spawn_event.clock, parent_spawn_event.lazy_clock
            )
        else:
            self.regular.ensure_thread(tid)
            self.lazy.ensure_thread(tid)

    def register_thread_clocks(
        self,
        tid: int,
        spawn_clock: Tuple[int, ...],
        spawn_lazy_clock: Tuple[int, ...],
    ) -> None:
        """Raw-value form of :meth:`register_thread` for a spawned
        thread: the child's clocks start from the published snapshots of
        the SPAWN event."""
        self.regular.ensure_thread(tid)
        self.lazy.ensure_thread(tid)
        join_tuple_into(self.regular.thread_clocks[tid], spawn_clock)
        join_tuple_into(self.lazy.thread_clocks[tid], spawn_lazy_clock)

    def add_release_edge(self, event: Event, released_tid: int) -> None:
        """Record that ``event`` unblocked ``released_tid`` (condvar
        notify, semaphore release, barrier completion, thread exit
        observed by join).  The released thread's next event will
        happen-after ``event`` in both relations."""
        assert event.clock is not None and event.lazy_clock is not None
        self.add_release_edge_clocks(event.clock, event.lazy_clock, released_tid)

    def add_release_edge_clocks(
        self,
        clock: Tuple[int, ...],
        lazy_clock: Tuple[int, ...],
        released_tid: int,
    ) -> None:
        """Raw-value form of :meth:`add_release_edge`."""
        self._pending_sync.setdefault(released_tid, []).append(
            (clock, lazy_clock)
        )

    # ------------------------------------------------------------------
    def observe(
        self,
        tid: int,
        kind: int,
        oid: int,
        key: object,
        released_mutex_oid: Optional[int] = None,
    ) -> Tuple[Tuple[int, ...], Tuple[int, ...]]:
        """Fold one executed operation into both relations and return
        its published ``(regular, lazy)`` clock snapshots.

        This is THE replay hot path (executed once per event, millions
        of times per campaign): both relations are advanced in one
        straight-line body, the fingerprint chains are updated inline,
        and beyond the two published snapshot tuples (plus the label)
        nothing is allocated.
        """
        ps = self._pending_sync
        pending = ps.pop(tid, None) if ps else None
        regular = self.regular
        lazy = self.lazy
        modifying = IS_MODIFYING[kind]
        is_mutex = IS_MUTEX[kind]
        loc = (oid, key) if oid >= 0 else None

        # -- regular relation ------------------------------------------
        tc = regular.thread_clocks[tid]
        access = regular.access
        if pending:
            for edge in pending:
                join_tuple_into(tc, edge[0])
        if loc is not None:
            prev = (access if modifying else regular.modify).get(loc)
            if prev is not None:
                join_tuple_into(tc, prev)
        # A WAIT event releases its paired mutex: on the regular side it
        # behaves like an unlock of that mutex as well (so later lock()
        # events are ordered after it).  The lazy side ignores mutexes.
        mutex_loc = None
        if released_mutex_oid is not None:
            mutex_loc = (released_mutex_oid, None)
            prev = access.get(mutex_loc)
            if prev is not None:
                join_tuple_into(tc, prev)
        tc[tid] += 1
        snap = tuple(tc)  # copy-on-publish: the per-event allocation
        if loc is not None:
            if modifying:
                # joined A[loc] above, then ticked: snap dominates both
                # table entries, so publication is plain replacement.
                access[loc] = snap
                regular.modify[loc] = snap
            else:
                old = access.get(loc)
                if old is None or tuple_dominates(snap, old):
                    access[loc] = snap
                else:  # concurrent readers: genuine join
                    access[loc] = tuple_join(snap, old)
        if mutex_loc is not None:
            # joined A[mutex] above: replacement is sound here too.
            access[mutex_loc] = snap
            regular.modify[mutex_loc] = snap

        # -- lazy relation (mutex ops induce no inter-thread edges) ----
        tc = lazy.thread_clocks[tid]
        if pending:
            for edge in pending:
                join_tuple_into(tc, edge[1])
        if loc is not None and not is_mutex:
            prev = (lazy.access if modifying else lazy.modify).get(loc)
            if prev is not None:
                join_tuple_into(tc, prev)
        tc[tid] += 1
        lazy_snap = tuple(tc)
        if loc is not None and not is_mutex:
            access = lazy.access
            if modifying:
                access[loc] = lazy_snap
                lazy.modify[loc] = lazy_snap
            else:
                old = access.get(loc)
                if old is None or tuple_dominates(lazy_snap, old):
                    access[loc] = lazy_snap
                else:
                    access[loc] = tuple_join(lazy_snap, old)

        # -- fingerprints (chain update inlined — see FingerprintChain;
        # the (label, clock) pair is hashed as one flat tuple to avoid
        # materialising the label)
        if key is None:
            key = -1
        rchain = regular.chain
        chains = rchain._chains
        chains[tid] = hash((chains[tid], kind, oid, key, snap))
        rchain._count += 1
        lchain = lazy.chain
        chains = lchain._chains
        chains[tid] = hash((chains[tid], kind, oid, key, lazy_snap))
        lchain._count += 1
        if self._canonical:
            label = (kind, oid, key)
            regular.canonical.update(tid, label, snap)
            lazy.canonical.update(tid, label, lazy_snap)
        return snap, lazy_snap

    # ------------------------------------------------------------------
    # Fingerprint accessors
    def hbr_fingerprint(self) -> int:
        """Fingerprint of the regular HBR of the trace so far."""
        return self.regular.chain.prefix_fingerprint()

    def lazy_fingerprint(self) -> int:
        """Fingerprint of the lazy HBR of the trace so far."""
        return self.lazy.chain.prefix_fingerprint()

    def canonical_hbr(self):
        """Exact canonical regular HBR (requires ``canonical=True``)."""
        if self.regular.canonical is None:
            raise ValueError("engine was created with canonical=False")
        return self.regular.canonical.freeze()

    def canonical_lazy_hbr(self):
        """Exact canonical lazy HBR (requires ``canonical=True``)."""
        if self.lazy.canonical is None:
            raise ValueError("engine was created with canonical=False")
        return self.lazy.canonical.freeze()

    def thread_clock(self, tid: int, lazy: bool = False) -> VectorClock:
        """The thread's current clock, as an independent
        :class:`VectorClock` copy (API for analysis code and tests)."""
        return VectorClock(init=self.thread_clock_raw(tid, lazy))

    def thread_clock_raw(
        self, tid: int, lazy: bool = False
    ) -> Sequence[int]:
        """The live, mutable list clock of ``tid`` — read-only use
        (DPOR's happens-before tests).  No defensive copy.

        A tid the engine has not registered reads as the empty tuple
        (every entry zero) and registers nothing: reading a clock must
        not change the fingerprints or :meth:`table_stats`."""
        clocks = (self.lazy if lazy else self.regular).thread_clocks
        if 0 <= tid < len(clocks):
            return clocks[tid]
        return ()

    # ------------------------------------------------------------------
    def table_stats(self) -> Tuple[int, int]:
        """(published table entries, thread count) — a backend-neutral
        size probe (the compiled kernel exposes the same signature over
        its own layout), which the backend-agreement tests compare."""
        r, z = self.regular, self.lazy
        entries = (
            len(r.access) + len(r.modify) + len(z.access) + len(z.modify)
        )
        return entries, len(r.thread_clocks)
