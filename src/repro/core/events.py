"""Operations and events.

A guest thread communicates with the runtime by ``yield``-ing
:class:`Op` objects (constructed through
:class:`repro.runtime.thread_api.ThreadAPI`).  When the scheduler picks
the thread, the executor performs the operation and the resulting
:class:`Event` is appended to the trace.

Terminology follows the paper: an executed operation is an *event*; a
total order of events is a *schedule*.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field
from typing import Any, Dict, Optional, Tuple

from .fingerprint import fingerprint_label


class OpKind(enum.IntEnum):
    """Kinds of visible operations.

    The integer values are stable and are used inside fingerprints, so
    they must not be reordered; new kinds are only ever *appended*.
    """

    READ = 0          #: read a shared variable
    WRITE = 1         #: write a shared variable
    RMW = 2           #: atomic read-modify-write (CAS, fetch_add, ...)
    LOCK = 3          #: acquire a mutex
    UNLOCK = 4        #: release a mutex
    WAIT = 5          #: condition-variable wait (releases the mutex)
    NOTIFY = 6        #: condition-variable notify (one waiter)
    NOTIFY_ALL = 7    #: condition-variable notify (all waiters)
    SEM_ACQUIRE = 8   #: semaphore P
    SEM_RELEASE = 9   #: semaphore V
    BARRIER_WAIT = 10 #: cyclic barrier arrival
    SPAWN = 11        #: create a new guest thread
    JOIN = 12         #: wait for a guest thread to terminate
    EXIT = 13         #: implicit final event of every thread
    RLOCK = 14        #: acquire a read-write lock in shared (reader) mode
    RUNLOCK = 15      #: release reader mode
    WLOCK = 16        #: acquire a read-write lock in exclusive mode
    WUNLOCK = 17      #: release exclusive mode
    YIELD = 18        #: pure scheduling point, no shared access
    CHAN_SEND = 19    #: deposit a value into a channel
    CHAN_RECV = 20    #: take a value from a channel
    CHAN_CLOSE = 21   #: close a channel
    FUT_SET = 22      #: complete a future with a value
    FUT_GET = 23      #: read a completed future's value
    SLEEP = 24        #: advance virtual time by a fixed duration
    TIME_FIRE = 25    #: a pending timeout fired instead of its operation
    TIMER_TICK = 26   #: one period of a periodic timer thread elapsed


class HBClass(enum.IntEnum):
    """How one operation kind participates in the happens-before
    relations — the per-kind half of the sync-primitive protocol (the
    per-object half lives on :class:`~repro.runtime.objects
    .SharedObject`).

    The clock engine and the dependence predicates are driven entirely
    by this classification; no component outside the primitive's own
    module needs to enumerate its kinds.

    * ``ACQUIRE`` — a non-modifying access: it observes the object
      (ordered after all prior modifications) but does not conflict
      with other ACQUIRE accesses.  READ, JOIN, FUT_GET.
    * ``RELEASE`` — a modifying access that additionally hands state to
      other threads (the runtime may inject explicit release edges to
      woken threads): NOTIFY, SEM_RELEASE, CHAN_SEND, FUT_SET, SPAWN.
      Clock treatment equals ``BOTH``; the distinction is semantic and
      feeds diagnostics/analysis, not the engine.
    * ``BOTH`` — a modifying access plain and simple: conflicts with
      every other access to the same location, in both relations.
    * ``LOCAL`` — a *mutex-class* modification: a full conflict edge in
      the regular HBR, but no inter-thread edge in the **lazy** HBR
      (paper, Section 2: "lock and unlock events do not introduce
      inter-thread edges").  Only LOCK/UNLOCK, per Theorem 2.2.
    """

    ACQUIRE = 0
    RELEASE = 1
    BOTH = 2
    LOCAL = 3


@dataclass(frozen=True)
class KindSpec:
    """Declarative semantics of one operation kind.

    ``hb`` drives the clock engines and the dependence predicates;
    ``blocking`` marks kinds with an enabledness condition (used for
    diagnostics and analysis, never for dispatch); ``disturbing``
    marks kinds whose execution can change *another* thread's
    enabledness (the executor's memoised enabled list survives steps
    of non-disturbing kinds); ``arrival_sensitive`` marks kinds whose
    mere *pendingness* can enable another thread (a new arrival forces
    an enabled-list rebuild: barrier cohorts, rendezvous receivers);
    ``data`` marks plain data-access kinds that key events on the
    op's ``arg`` (sub-object locations); ``gives_ops`` marks kinds
    whose execution can give *another* thread a new pending op (a
    notify hands each woken waiter the re-acquire of its mutex, a
    spawn starts its child at a first op), so only after steps of
    other kinds does every other thread keep the op it had.
    """

    hb: HBClass
    blocking: bool = False
    disturbing: bool = True
    arrival_sensitive: bool = False
    data: bool = False
    gives_ops: bool = False


#: The kind registry: one declarative row per operation kind.  Adding a
#: primitive = appending its kinds above and its rows here; every kind
#: table the engines use is derived from this single source.
KIND_SPEC: Dict[OpKind, KindSpec] = {
    # plain data (sharedvar / atomic); WRITE/RMW only disturb threads
    # pending an ``await_value`` predicate, which the executor tracks
    # with a dedicated counter — so they are declared non-disturbing
    OpKind.READ: KindSpec(HBClass.ACQUIRE, disturbing=False, data=True),
    OpKind.WRITE: KindSpec(HBClass.BOTH, disturbing=False, data=True),
    OpKind.RMW: KindSpec(HBClass.BOTH, disturbing=False, data=True),
    # mutex: the only LOCAL (lazy-invisible) kinds, per Theorem 2.2
    OpKind.LOCK: KindSpec(HBClass.LOCAL, blocking=True),
    OpKind.UNLOCK: KindSpec(HBClass.LOCAL),
    # condition variables
    OpKind.WAIT: KindSpec(HBClass.BOTH, blocking=True),
    OpKind.NOTIFY: KindSpec(HBClass.RELEASE, gives_ops=True),
    OpKind.NOTIFY_ALL: KindSpec(HBClass.RELEASE, gives_ops=True),
    # semaphores
    OpKind.SEM_ACQUIRE: KindSpec(HBClass.BOTH, blocking=True),
    OpKind.SEM_RELEASE: KindSpec(HBClass.RELEASE),
    # barriers: a new pending arrival can complete a cohort
    OpKind.BARRIER_WAIT: KindSpec(
        HBClass.BOTH, blocking=True, arrival_sensitive=True
    ),
    # thread lifecycle (executor-core semantics).  SPAWN/EXIT modify
    # the target thread's pseudo-object; JOIN only observes it, so
    # concurrent joins of a finished thread do not conflict.
    OpKind.SPAWN: KindSpec(HBClass.RELEASE, gives_ops=True),
    OpKind.JOIN: KindSpec(HBClass.ACQUIRE, blocking=True, disturbing=False),
    OpKind.EXIT: KindSpec(HBClass.BOTH),
    # reader-writer locks (kept in the lazy HBR: the paper's theorem
    # covers plain mutexes only)
    OpKind.RLOCK: KindSpec(HBClass.BOTH, blocking=True),
    OpKind.RUNLOCK: KindSpec(HBClass.BOTH),
    OpKind.WLOCK: KindSpec(HBClass.BOTH, blocking=True),
    OpKind.WUNLOCK: KindSpec(HBClass.BOTH),
    # pure scheduling point
    OpKind.YIELD: KindSpec(HBClass.ACQUIRE, disturbing=False),
    # channels: send/recv/close all modify the FIFO, so a recv is
    # ordered after its matching send by ordinary conflict edges in
    # both relations; a rendezvous send is enabled only while a
    # receiver is *pending*, hence recv's arrival sensitivity
    OpKind.CHAN_SEND: KindSpec(HBClass.RELEASE, blocking=True),
    OpKind.CHAN_RECV: KindSpec(
        HBClass.BOTH, blocking=True, arrival_sensitive=True
    ),
    OpKind.CHAN_CLOSE: KindSpec(HBClass.BOTH),
    # futures: set modifies, get observes (concurrent gets independent)
    OpKind.FUT_SET: KindSpec(HBClass.RELEASE),
    OpKind.FUT_GET: KindSpec(HBClass.ACQUIRE, blocking=True,
                             disturbing=False),
    # virtual time: every time event modifies the program's clock
    # object in BOTH relations, so time events are totally ordered and
    # the virtual now is a function of the happens-before fingerprint
    # (which keeps the fingerprint-caching explorers sound).  SLEEP and
    # TIMER_TICK only advance the clock (the stepped thread stays
    # enabled); TIME_FIRE also withdraws the timed-out operation, which
    # can disable another thread (a rendezvous sender loses its pending
    # receiver), hence disturbing.
    OpKind.SLEEP: KindSpec(HBClass.BOTH, blocking=True, disturbing=False),
    OpKind.TIME_FIRE: KindSpec(HBClass.BOTH, blocking=True),
    OpKind.TIMER_TICK: KindSpec(HBClass.BOTH, blocking=True,
                                disturbing=False),
}

assert set(KIND_SPEC) == set(OpKind), "every OpKind needs a KindSpec row"

#: Kinds the lazy HBR ignores when computing inter-thread edges
#: (mutex-class operations), derived from the kind registry.
MUTEX_KINDS = frozenset(
    k for k, spec in KIND_SPEC.items() if spec.hb is HBClass.LOCAL
)

#: Kinds that *modify* the object they touch, for condition (b) of the
#: happens-before definition ("at least one access is a modification").
MODIFYING_KINDS = frozenset(
    k for k, spec in KIND_SPEC.items() if spec.hb is not HBClass.ACQUIRE
)

#: Kinds that may block (have an enabledness condition).
BLOCKING_KINDS = frozenset(
    k for k, spec in KIND_SPEC.items() if spec.blocking
)

#: Plain data-access kinds (events keyed on the op's ``arg``).
DATA_KINDS = frozenset(k for k, spec in KIND_SPEC.items() if spec.data)

#: Virtual-time kinds: events that advance the program's clock object.
TIME_KINDS = frozenset(
    {OpKind.SLEEP, OpKind.TIME_FIRE, OpKind.TIMER_TICK}
)

#: Dense bool tables indexed by ``int(kind)`` — O(1) list indexing beats
#: frozenset hashing on the per-event hot path of the clock engine.
IS_MODIFYING = tuple(k in MODIFYING_KINDS for k in OpKind)
IS_MUTEX = tuple(k in MUTEX_KINDS for k in OpKind)
IS_DISTURBING = tuple(KIND_SPEC[k].disturbing for k in OpKind)
IS_ARRIVAL_SENSITIVE = tuple(
    KIND_SPEC[k].arrival_sensitive for k in OpKind
)
IS_DATA = tuple(KIND_SPEC[k].data for k in OpKind)
GIVES_OPS = tuple(KIND_SPEC[k].gives_ops for k in OpKind)
IS_TIME = tuple(k in TIME_KINDS for k in OpKind)


#: One virtual tick is one microsecond; durations cross the API as
#: seconds (matching the stdlib signatures) and live in the runtime as
#: integer ticks so virtual time is exact, portable and hashable.
TICKS_PER_SECOND = 1_000_000


def to_ticks(seconds: float) -> int:
    """Convert a stdlib-style ``seconds`` duration to integer ticks
    (non-negative; sub-tick durations round to nearest)."""
    ticks = int(round(seconds * TICKS_PER_SECOND))
    return ticks if ticks > 0 else 0


class _TimedOutType:
    """The singleton sentinel a guest receives when a timed operation's
    timeout fired instead of the operation succeeding.  Identity is
    preserved across pickling (snapshots, campaign workers)."""

    _instance: Optional["_TimedOutType"] = None
    __slots__ = ()

    def __new__(cls) -> "_TimedOutType":
        if cls._instance is None:
            cls._instance = super().__new__(cls)
        return cls._instance

    def __repr__(self) -> str:
        return "TIMED_OUT"

    def __reduce__(self):
        return (_TimedOutType, ())


TIMED_OUT = _TimedOutType()


class Op:
    """A pending operation yielded by a guest thread.

    ``target`` is the :class:`~repro.runtime.objects.SharedObject` the
    operation acts on (``None`` for YIELD/SPAWN/EXIT).  ``arg`` carries
    the operation payload: the value for WRITE, the update function for
    RMW, the body for SPAWN, the thread id for JOIN, the paired mutex
    for WAIT.

    A hand-rolled ``__slots__`` class rather than a frozen dataclass:
    one ``Op`` is allocated per guest yield — twice per event once
    snapshot fast-forward re-feeds generator tapes — so construction is
    on the replay hot path.  Fields are write-once by construction
    discipline; a ``__setattr__`` guard enforcing it was measured at
    +400ns per Op (4 ``object.__setattr__`` calls) and dropped.  The
    slots still reject foreign attributes.

    ``info`` starts empty:
    :meth:`~repro.runtime.executor.Executor.pending_info` stores the
    op's :class:`~repro.runtime.trace.PendingInfo` there the first time
    a thread has it pending, so an op the op-trie serves in every
    schedule builds its record once.
    """

    __slots__ = ("kind", "target", "arg", "arg2", "timeout", "info")

    def __init__(self, kind: OpKind, target: Any = None, arg: Any = None,
                 arg2: Any = None, timeout: Optional[int] = None) -> None:
        self.kind = kind
        self.target = target
        self.arg = arg
        self.arg2 = arg2
        #: virtual-time budget in ticks for a blocking op (``None`` =
        #: wait forever); for SLEEP/TIMER_TICK, the duration itself
        self.timeout = timeout
        self.info = None

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        t = getattr(self.target, "name", self.target)
        return f"Op({self.kind.name}, {t})"


@dataclass(slots=True)
class Event:
    """An executed operation, as recorded in the trace.

    ``oid`` is the integer id of the shared object touched (``-1`` when
    no object is touched).  ``tindex`` is the event's position within
    its own thread (0-based).  ``clock`` / ``lazy_clock`` are the
    event's vector clocks under the regular and lazy happens-before
    relations, as :meth:`~repro.core.hb.DualClockEngine.observe`
    published them when the event executed.
    """

    index: int                      #: position in the schedule (0-based)
    tid: int                        #: executing thread
    tindex: int                     #: position within the thread
    kind: OpKind
    oid: int                        #: shared-object id, or -1
    key: Any = None                 #: sub-object key (array index, dict key)
    value: Any = None               #: result / written value (informational)
    clock: Optional[Tuple[int, ...]] = None
    lazy_clock: Optional[Tuple[int, ...]] = None
    #: for WAIT events: the oid of the mutex released by the wait, so the
    #: regular HBR can order subsequent lock() events after the wait.
    released_mutex_oid: Optional[int] = None
    extra: Any = field(default=None, repr=False)

    @property
    def is_mutex_op(self) -> bool:
        """True when this event is a pure mutex lock/unlock."""
        return self.kind in MUTEX_KINDS

    @property
    def is_modification(self) -> bool:
        """True when this event modifies its target object."""
        return self.kind in MODIFYING_KINDS

    def label(self) -> Tuple[int, int, Any]:
        """The event's fingerprint label ``(kind, oid, key)``, with a
        missing key normalised to ``-1`` (see
        :func:`~repro.core.fingerprint.fingerprint_label`).

        Labels deliberately exclude data values: the happens-before
        relation is a partial order over *operations*; in a
        deterministic program the values are a function of the partial
        order, so including them would be redundant.
        """
        return fingerprint_label(self.kind, self.oid, self.key)

    def location(self) -> Tuple[int, Any]:
        """The memory location touched, as an ``(oid, key)`` pair."""
        return (self.oid, self.key)

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return (
            f"Event(#{self.index} T{self.tid}.{self.tindex} "
            f"{self.kind.name} oid={self.oid})"
        )
