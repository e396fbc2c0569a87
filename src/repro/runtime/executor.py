"""The stepwise executor: the heart of the SCT runtime.

An :class:`Executor` owns one fresh :class:`ProgramInstance` and drives
its guest generators one visible operation at a time:

* every thread always has (at most) one *pending* operation — the value
  of its most recent ``yield`` — giving the one-op lookahead DPOR needs;
* :meth:`enabled` reports which pending operations can execute now;
* :meth:`step` executes one of them, updates both happens-before
  clock engines, resumes the generator, captures its next pending op
  and returns the stamped :class:`Event`.  The executor keeps no trace:
  callers that read events (DPOR's race analysis,
  :func:`~repro.runtime.schedule.execute`) keep the ones they step;
* when no thread is enabled and some are unfinished, the run ends in a
  recorded :class:`~repro.errors.DeadlockError`.

Explorers build one Executor per exploration and place every later
schedule's executor by restoring a snapshot, or by reusing one that a
pruned schedule left standing at the right prefix
(:meth:`repro.explore.base.Explorer._executor_at`), so this class has
no reset logic.  :meth:`lookahead` lets them probe a step's
fingerprints before deciding to pay for it: the clock engine computes
them from its tables with ``fingerprint_after``, with no fork and no
step.

Hot-path machinery (this class runs millions of steps per campaign):

* :meth:`enabled` is one pass over the threads in tid order, and its
  result is memoised until a step changes some thread's enabledness,
  so the per-scheduling-point test runs once however many times
  ``is_done``/``enabled`` are consulted.  A step of a kind that cannot
  change another thread's enabledness patches the memoised list
  instead of dropping it.  (A finer-grained per-object watcher scheme
  was measured and *lost* to this design at realistic thread counts —
  in lock-heavy programs every thread watches the same mutex, so the
  bookkeeping outweighs the rescan of a handful of threads.)
* the barrier admission pre-pass is skipped entirely unless some
  runnable thread actually pends a ``BARRIER_WAIT`` (counter maintained
  as pending ops change);
* every thread's *send tape* (the values its generator has received)
  is recorded, enabling :meth:`snapshot`/:meth:`fork`/
  :meth:`from_snapshot` — copy-on-write executor snapshots that let
  explorers resume from a branch point instead of replaying the
  whole prefix (see :mod:`repro.runtime.snapshot` for the design and
  its guarantees).  A restore rebuilds every thread: at the op-trie
  node (:mod:`repro.runtime.optrie`) the snapshot recorded for it,
  when restoring onto the recycled instance that owns that trie, else
  by fast-forwarding a fresh generator.
"""

from __future__ import annotations

import enum
import os
from bisect import insort
from typing import Any, Callable, Dict, List, Optional, Sequence, Set, Tuple

from ..core.events import (
    GIVES_OPS,
    IS_ARRIVAL_SENSITIVE,
    IS_DATA,
    IS_DISTURBING,
    Event,
    Op,
    OpKind,
)
from ..core.engines import create_clock_engine, resolve_engine
from ..errors import (
    DeadlockError,
    DisabledThreadError,
    GuestError,
    InvalidOpError,
    SchedulerError,
)
from .barrier import admit_full_cohorts
from .objects import ThreadHandle
from .optrie import UNKEYABLE, OpTrie, trie_key
from .program import Program, ProgramInstance
from .snapshot import ExecutorSnapshot, ThreadRecord
from .state import compute_state_hash
from .thread_api import ThreadAPI
from .trace import PendingInfo, TraceResult

DEFAULT_MAX_EVENTS = 20_000

#: Process-wide kill switch for the op-stream cache
#: (:mod:`repro.runtime.optrie`); the byte-identity suite uses it to
#: assert cache-on == cache-off.
_OPCACHE_ON = os.environ.get("REPRO_OPCACHE", "").strip().lower() not in (
    "0", "off", "no", "false",
)

#: Kinds whose execution can change *another* thread's enabledness
#: (releases, acquisitions, lifecycle), per the kind registry.
#: READ/YIELD/JOIN/FUT_GET never do; WRITE/RMW only when some thread
#: pends an ``await_value`` predicate (tracked by a counter).  Steps of
#: non-disturbing kinds patch the memoised enabled list instead of
#: invalidating it.
_DISTURBING = IS_DISTURBING

#: Kinds whose mere *pendingness* can enable another thread (barrier
#: cohorts, rendezvous receivers): a thread arriving at one of these
#: forces an enabled-list rebuild even after a non-disturbing step.
_ARRIVAL = IS_ARRIVAL_SENSITIVE

#: Kinds handled by the executor core (thread lifecycle + pure yields);
#: everything else dispatches to the target's sync-primitive protocol.
_CORE = tuple(
    k in (OpKind.SPAWN, OpKind.JOIN, OpKind.EXIT, OpKind.YIELD)
    for k in OpKind
)

# The few OpKind members the remaining hot loops still compare against,
# as module globals (a global load is cheaper than an enum class
# attribute lookup).  The per-primitive dispatch that used to need one
# alias per kind lives in the primitives' own modules now.
_READ = OpKind.READ
_WRITE = OpKind.WRITE
_RMW = OpKind.RMW
_LOCK = OpKind.LOCK
_BARRIER_WAIT = OpKind.BARRIER_WAIT
_SPAWN = OpKind.SPAWN
_JOIN = OpKind.JOIN
_EXIT = OpKind.EXIT
_YIELD = OpKind.YIELD
_SLEEP = OpKind.SLEEP
_TIMER_TICK = OpKind.TIMER_TICK
_TIME_FIRE = OpKind.TIME_FIRE


class _Status(enum.IntEnum):
    RUNNABLE = 0
    WAITING = 1   # parked on a condition variable
    FINISHED = 2


_RUNNABLE = _Status.RUNNABLE
_WAITING = _Status.WAITING


#: Immortal per-tid ThreadAPI instances.  A ThreadAPI is an immutable
#: op factory (one ``tid`` slot, no state), so every executor can hand
#: the same instance to its thread ``tid`` — snapshot restores build
#: threads millions of times per campaign and the allocation shows up.
_THREAD_APIS: List[ThreadAPI] = []


def _thread_api(tid: int) -> ThreadAPI:
    apis = _THREAD_APIS
    while len(apis) <= tid:
        apis.append(ThreadAPI(len(apis)))
    return apis[tid]


class _GuestThread:
    __slots__ = (
        "tid", "name", "gen", "pending", "status", "tindex",
        "handle", "wait_mutex", "resuming", "crashed",
        "tape", "spawn_count", "throw_exc",
        "deadline", "wake_value", "parked_on", "trie_node", "pinfo",
    )

    def __init__(self, tid: int, name: str, gen, handle: ThreadHandle) -> None:
        self.tid = tid
        self.name = name
        self.gen = gen
        self.pending: Optional[Op] = None
        self.status = _Status.RUNNABLE
        self.tindex = 0
        self.handle = handle
        self.wait_mutex = None        # mutex to re-acquire after a wait
        self.resuming = False         # pending op is the implicit re-lock
        self.crashed = False          # terminated by a guest assertion
        self.tape: List[Any] = []     # send-value record (snapshots)
        self.spawn_count = 0          # executed SPAWNs (snapshot bookkeeping)
        self.throw_exc: Optional[GuestError] = None  # fx_throw injected error
        # virtual-time bookkeeping for the pending op (set when a timed
        # op becomes pending; survives a timed condvar park)
        self.deadline: Optional[int] = None   # armed timeout (relative ticks)
        self.wake_value: Optional[bool] = None  # timed wait: notified?
        self.parked_on = None         # condvar a *timed* wait parked on
        #: op-cache position (:mod:`repro.runtime.optrie`): with a live
        #: ``gen`` the thread *records* new edges here; with ``gen is
        #: None`` its ops are *served* from the trie; ``None`` = off
        self.trie_node = None
        #: the timed-waiter :class:`~repro.runtime.trace.PendingInfo`
        #: of the current park (a parked thread has no pending op to
        #: hold its record; :meth:`Executor.fx_park` clears it)
        self.pinfo = None


class Lookahead:
    """One pending event's fingerprints, before it runs
    (:meth:`Executor.lookahead`).  Each accessor asks the clock engine
    for ``fingerprint_after`` the event in one relation: a read of the
    tables, with no fork and no change to the engine."""

    __slots__ = ("_fingerprint_after", "_event")

    def __init__(self, engine, tid: int, kind: int, oid: int, key: Any,
                 released_mutex_oid: Optional[int]) -> None:
        self._fingerprint_after = engine.fingerprint_after
        self._event = (tid, kind, oid, key, released_mutex_oid)

    def hbr_fingerprint(self) -> int:
        return self._fingerprint_after(*self._event, False)

    def lazy_fingerprint(self) -> int:
        return self._fingerprint_after(*self._event, True)


class Executor:
    """Stepwise execution of one program instance under external control."""

    def __init__(
        self,
        program: Program,
        max_events: int = DEFAULT_MAX_EVENTS,
        engine: Optional[str] = None,
    ) -> None:
        self.program = program
        self.instance: ProgramInstance = program.instantiate()
        self._clock = self.instance.clock
        # the backend registry resolves engine name -> implementation
        # (None = env/auto; see repro.core.engines)
        self.engine_name = resolve_engine(engine)
        self.engine = create_clock_engine(self.engine_name)
        self.max_events = max_events
        #: programs whose guests mutate host-side Python state (the shim
        #: frontend: closures, lists, per-object hold maps) opt in to
        #: replaying *every* thread's tape on snapshot restore — a
        #: finished thread's side effects live outside the runtime
        #: objects, so skipping its generator would lose them
        self._replay_all_tapes = bool(
            program.metadata.get("replay_finished_threads")
        )
        #: op-stream cache (see :mod:`repro.runtime.optrie`): serves
        #: previously-seen guest op sequences without generators.
        #: Excluded exactly where tape-skipping is (guests with
        #: host-side state); materialisation re-feeds the send tape
        self._optrie: Optional[OpTrie] = None
        if _OPCACHE_ON and not self._replay_all_tapes:
            trie = self.instance.optrie
            if trie is None:
                trie = self.instance.optrie = OpTrie()
            self._optrie = trie
        self._spawn_origin: Dict[int, Tuple[int, int]] = {}
        self.schedule: List[int] = []
        self.threads: List[_GuestThread] = []
        self.error: Optional[GuestError] = None  # deadlock / fatal errors
        self.truncated = False
        # incremental scheduling state (see module docstring)
        self._unfinished = 0                   # threads not FINISHED
        self._barrier_pending = 0              # runnable pending BARRIER_WAITs
        self._pred_watch = 0                   # pending await_value READs
        # memoised enabled list; membership tests run on the list
        # itself — linear, but enabled sets are tiny and a C-level list
        # scan beats building a set on every rebuild
        self._enabled_cache: Optional[List[int]] = None
        # per-step effect scratch, written by primitives' op_apply via
        # the fx_* hooks and drained by step(); the _fx_any flag keeps
        # the common (effect-free) step at a single bool test
        self._fx_any = False
        self._fx_woken: Optional[List[int]] = None
        self._fx_parked = False
        self._fx_released: Optional[int] = None
        self._fx_throw: Optional[GuestError] = None

        self._static_threads = len(self.instance.threads)
        self.engine.reserve(self._static_threads)
        for body, args, name in self.instance.threads:
            self._create_thread(body, args, name)
        #: registry size before any guest code ran (build-time objects
        #: plus the static thread handles); release_instance compares
        #: against this to detect runtime object creation, which makes
        #: instance reuse unsound (fast-forward re-runs the creating
        #: host code and would register duplicates)
        self._boot_objects = len(self.instance.registry.objects)

    @property
    def num_events(self) -> int:
        """Events executed so far (= ``len(schedule)``)."""
        return len(self.schedule)

    # ------------------------------------------------------------------
    # Thread management
    def _create_thread(self, body: Callable, args: Tuple, name: str) -> _GuestThread:
        tid = len(self.threads)
        handle = ThreadHandle(self.instance.registry, tid)
        t = _GuestThread(tid, name or f"T{tid}", None, handle)
        self.threads.append(t)
        self._unfinished += 1
        if tid >= self._static_threads:
            self.engine.reserve(tid + 1)  # __init__ reserved the rest
        trie = self._optrie
        static = tid < self._static_threads
        if trie is not None and static:
            root = trie.roots.get(tid)
            if root is not None:
                # op-cache hit: serve the first op without building the
                # generator at all (it materialises only if this run's
                # send history leaves the recorded trie)
                t.trie_node = root
                self._serve_pending(t, root[0])
                return t
        t.gen = body(_thread_api(tid), *args)
        self._advance(t, None, first=True)
        if trie is not None and static and trie.nodes < trie.cap:
            trie.nodes += 1
            t.trie_node = trie.roots[tid] = [t.pending, None]
        return t

    def _serve_pending(self, t: _GuestThread, op: Op) -> None:
        """Install ``t``'s next pending op, live or trie-served, with
        its pending-arrival bookkeeping."""
        t.pending = op
        kind = op.kind
        if op.timeout is not None:
            # SLEEP/TIMER_TICK target the program clock (the API cannot
            # reach it, so a live op arrives with target=None; a cached
            # op already targets this instance's clock).  The armed
            # value is the RELATIVE duration: the clock advances by it
            # when (if) the time event executes.  Capturing an absolute
            # deadline here would read the clock at pending-creation
            # time, making it depend on how independent events
            # interleaved — unsound for DPOR (commuting an unrelated
            # event with a clock advance would change the deadline).
            if op.target is None and (kind is _SLEEP or kind is _TIMER_TICK):
                op.target = self._clock
            t.deadline = op.timeout
        if kind is _BARRIER_WAIT:
            self._barrier_pending += 1
        elif kind is _READ and op.arg2 is not None:
            self._pred_watch += 1

    def _trie_extend(self, t: _GuestThread, node, send_value: Any,
                     op: Op) -> None:
        """Record the live-executed edge ``send_value -> op`` under
        ``node`` and move ``t``'s cache position onto it.  An
        unkeyable value (or a full trie) permanently drops the thread
        out of the cache instead."""
        key = trie_key(send_value)
        if key is UNKEYABLE:
            t.trie_node = None
            return
        children = node[1]
        if children is None:
            children = node[1] = {}
        child = children.get(key)
        if child is None:
            trie = self._optrie
            if trie.nodes >= trie.cap:
                t.trie_node = None
                return
            trie.nodes += 1
            child = children[key] = [op, None]
        t.trie_node = child

    def _materialize(self, t: _GuestThread):
        """Rebuild a trie-served thread's generator at its current
        position by re-feeding the recorded send history, as a
        snapshot restore does (:meth:`_fast_forward`).  Runs when a
        schedule first leaves the recorded trie (or an exception must
        be thrown into the guest); the guest is deterministic, so it
        cannot die mid-history."""
        body, args, _name = self.instance.threads[t.tid]
        gen = body(_thread_api(t.tid), *args)
        tape = t.tape
        op = self._fast_forward(gen, tape, len(tape), t.handle, False)[0]
        if op.kind is _EXIT:
            raise SchedulerError(
                f"op-cache divergence: thread {t.tid} ({t.name}) died "
                f"while re-feeding its recorded send history"
            )
        t.gen = gen
        return gen

    def _advance(self, t: _GuestThread, send_value: Any, first: bool = False) -> None:
        """Resume ``t``'s generator and capture its next pending op —
        or, for a trie-served thread, look the op up in the op-stream
        cache without touching a generator at all."""
        gen = t.gen
        node = t.trie_node
        if gen is None and node is not None:
            children = node[1]
            if children is not None:
                key = trie_key(send_value)
                if key is not UNKEYABLE:
                    child = children.get(key)
                    if child is not None:
                        t.tape.append(send_value)
                        t.trie_node = child
                        self._serve_pending(t, child[0])
                        return
            # unexplored edge: build the generator at this position and
            # fall through to live execution (recording resumes below)
            gen = self._materialize(t)
        if not first:
            # the tape records the value even when the send terminates
            # the generator: fast-forward re-feeds it to reproduce the
            # same StopIteration/GuestError
            t.tape.append(send_value)
        try:
            op = next(gen) if first else gen.send(send_value)
        except StopIteration:
            op = Op(OpKind.EXIT, t.handle)
            t.pending = op
            if node is not None:
                self._trie_extend(t, node, send_value, op)
            return
        except GuestError as exc:
            # A guest assertion failure crashes only this thread: its
            # death becomes an ordinary EXIT event (carrying the error),
            # and the other threads keep running.  A global abort would
            # make terminal states depend on where *concurrent* threads
            # happened to be, which breaks the trace-equivalence
            # arguments every POR strategy relies on.
            op = Op(OpKind.EXIT, t.handle, exc)
            t.pending = op
            if node is not None:
                self._trie_extend(t, node, send_value, op)
            return
        if not isinstance(op, Op):
            raise InvalidOpError(
                f"thread {t.name} yielded {op!r}; guest threads must yield "
                f"Op values built with the ThreadAPI"
            )
        if node is not None:
            self._trie_extend(t, node, send_value, op)
        self._serve_pending(t, op)

    def _advance_throw(self, t: _GuestThread, exc: GuestError) -> None:
        """Resume ``t`` by throwing ``exc`` into its generator
        (:meth:`fx_throw`): the guest dies at its current yield and the
        crash is recorded like a failed assertion — a pending EXIT
        event carrying the error.  Nothing is appended to the send
        tape; snapshots record the injected error instead (the
        generator is dead weight from here on, exactly like a
        StopIteration'd one).

        The injected error is fatal by contract: a guest that catches
        it and returns still crashes with ``exc`` (swallowing the
        violation does not undo it); a guest that escalates to a
        different :class:`GuestError` crashes with *that* error; a
        guest that catches it and yields again has diverged from its
        send tape, which is a modelling error, not a schedule outcome.
        """
        if t.gen is None and t.trie_node is not None:
            # a trie-served thread needs a real generator to die in;
            # injected exceptions are not part of the send alphabet, so
            # the thread leaves the op cache for good
            self._materialize(t)
        t.trie_node = None
        try:
            t.gen.throw(exc)
        except StopIteration:
            pass
        except GuestError as raised:
            exc = raised
        else:
            raise InvalidOpError(
                f"thread {t.name} caught a runtime-injected "
                f"{type(exc).__name__} and kept running; guests must "
                f"not intercept channel/future violations"
            )
        t.throw_exc = exc
        t.pending = Op(OpKind.EXIT, t.handle, exc)

    # ------------------------------------------------------------------
    # Effect hooks (called by primitives' op_apply during step())
    def fx_park(self, t: _GuestThread, mutex) -> None:
        """Park the stepping thread until :meth:`fx_wake` releases it;
        its wakeup re-acquires ``mutex`` as an implicit LOCK event
        before the guest's yield returns (monitor semantics).  The
        parking op's event carries the released mutex oid, so the
        regular HBR orders later lock() events after it."""
        t.wait_mutex = mutex
        t.status = _Status.WAITING
        t.pinfo = None
        self._fx_released = mutex.oid
        self._fx_parked = True
        self._fx_any = True

    def fx_wake(self, tids: List[int]) -> None:
        """Wake parked threads: the executing event gets a release edge
        to each (in both relations), and their pending op becomes the
        implicit re-acquire of their park mutex."""
        if tids:
            self._fx_woken = tids
            self._fx_any = True

    def fx_throw(self, exc: GuestError) -> None:
        """Crash the stepping guest thread with ``exc`` after the
        current event executes: the generator is resumed by *throwing*
        instead of sending, so the failure is recorded exactly like a
        guest assertion (a per-thread crash carried by the EXIT event)
        and explorers can race-reverse the event that triggered it."""
        self._fx_throw = exc
        self._fx_any = True

    # ------------------------------------------------------------------
    # Enabledness
    def _admit_barriers(self) -> None:
        """Deterministic pre-pass: admit full barrier cohorts.  Skipped
        entirely when no runnable thread is pending a barrier wait; the
        cohort rule itself lives in :mod:`repro.runtime.barrier`."""
        if not self._barrier_pending:
            return
        admit_full_cohorts(
            (t.tid, t.pending.target)
            for t in self.threads
            if (
                t.status == _Status.RUNNABLE
                and t.pending is not None
                and t.pending.kind is _BARRIER_WAIT
                and t.tid not in t.pending.target.admitted
            )
        )

    def _op_enabled(self, t: _GuestThread) -> bool:
        op = t.pending
        target = op.target
        if target is None:
            # SPAWN / JOIN / YIELD: lifecycle ops with no shared object
            if op.kind is _JOIN:
                joined = op.arg
                return (
                    0 <= joined < len(self.threads)
                    and self.threads[joined].status == _Status.FINISHED
                )
            return True
        return target.op_enabled(op, t.tid, self)

    def _blocked_reason(self, t: _GuestThread) -> str:
        """Why ``t``'s pending op cannot run, via the primitive's
        ``blocking_desc`` (diagnostics; never on the hot path)."""
        op = t.pending
        if op is None:
            return "no pending operation"
        if op.target is None:
            if op.kind is _JOIN:
                return f"waiting to join T{op.arg} (still running)"
            return f"{op.kind.name} blocked"  # pragma: no cover
        reason = op.target.blocking_desc(op)
        sites = op.target.op_sites
        if sites:
            site = sites.get(op.kind)
            if site:
                return f"{site}: {reason}"
        return reason

    def has_pending_recv(self, oid: int, sender_tid: int) -> bool:
        """Is some *other* runnable thread pending a CHAN_RECV on the
        channel ``oid``?  Rendezvous-send enabledness (the one primitive
        semantics that depends on other threads' pending ops)."""
        recv = OpKind.CHAN_RECV
        for t in self.threads:
            if t.tid != sender_tid and t.status == _Status.RUNNABLE:
                op = t.pending
                if (
                    op is not None
                    and op.kind is recv
                    and op.target.oid == oid
                ):
                    return True
        return False

    def enabled(self) -> List[int]:
        """Sorted tids whose pending operation can execute now: one
        pass over the threads in tid order.

        A runnable thread is enabled when its pending op is timed
        (stepping it executes the base operation if that can run now,
        else its TIME_FIRE) or can run now; a thread parked on a
        condvar with an armed deadline is enabled too (its step is the
        timeout firing).  Memoised until a step changes some thread's
        enabledness.  Callers must not mutate the returned list.
        """
        # terminal states win over any memoised list: error/truncation
        # can be set between steps (is_done, guest exceptions) without
        # passing through the invalidation in step()
        if self.error is not None or self.truncated:
            return []
        cached = self._enabled_cache
        if cached is not None:
            return cached
        self._admit_barriers()
        op_enabled = self._op_enabled
        result = []
        for t in self.threads:
            status = t.status
            if status is _RUNNABLE:
                if t.pending.timeout is not None or op_enabled(t):
                    result.append(t.tid)
            elif status is _WAITING and t.deadline is not None:
                result.append(t.tid)
        self._enabled_cache = result
        return result

    def runnable_unfinished(self) -> List[int]:
        """Tids of threads that have not finished (enabled or blocked)."""
        return [t.tid for t in self.threads if t.status != _Status.FINISHED]

    # ------------------------------------------------------------------
    # DPOR lookahead
    def pending_info(self, tid: int) -> Optional[PendingInfo]:
        """The pending operation of ``tid`` as location data, or None for
        finished/parked threads (a parked timed waiter's lookahead is
        its TIME_FIRE).

        Every field is a pure function of the pending op (locations,
        keys and released oids never depend on mutable object state),
        so the record is built the first time a thread has the op
        pending and kept on the op (``Op.info``): an op the op-trie
        serves again, in a later schedule or after a restore, comes
        with its record.  An op that two threads yield (one object in
        a closure both bodies share) keeps the first thread's record,
        and the other thread gets a fresh, uncached one each time.
        Enabledness is not part of it (ask :meth:`enabled`).  DPOR
        reads the identity: the same object at two consecutive states
        means the same op of the same thread.
        """
        t = self.threads[tid]
        op = t.pending
        if op is None:
            if t.deadline is None or t.status != _Status.WAITING:
                return None
            info = t.pinfo
            if info is None:
                # timed condvar waiter: the lookahead is its TIME_FIRE
                # on the clock, withdrawing it from the parked-on cv
                info = t.pinfo = PendingInfo(
                    tid, int(_TIME_FIRE), self._clock.oid, None,
                    t.parked_on.oid if t.parked_on is not None else None,
                    True,
                )
            return info
        info = op.info
        if info is not None and info.tid == tid:
            return info
        oid, key = self._op_location(t, op)
        released = (
            op.target.op_released_oid(op) if op.target is not None else None
        )
        timed = op.timeout is not None
        if timed and released is None and oid != self._clock.oid:
            # a timed blocking op may execute as a TIME_FIRE on the
            # clock: expose the clock as its secondary location so
            # DPOR orders it against other time events
            released = self._clock.oid
        fresh = PendingInfo(tid, int(op.kind), oid, key, released, timed)
        if info is None:
            op.info = fresh
        return fresh

    def all_pending_infos(self) -> List[PendingInfo]:
        """:meth:`pending_info` of every thread that has one, in tid
        order; a record already on the op is read in place."""
        pending_info = self.pending_info
        infos = []
        for t in self.threads:
            op = t.pending
            info = op.info if op is not None else None
            if info is None or info.tid != t.tid:
                info = pending_info(t.tid)
                if info is None:
                    continue
            infos.append(info)
        return infos

    @staticmethod
    def _op_location(t: _GuestThread, op: Op) -> Tuple[int, Any]:
        kind = op.kind
        if IS_DATA[kind]:
            return op.target.oid, op.arg
        if kind is _YIELD or kind is _SPAWN:
            return -1, None
        if kind is _JOIN:
            return -2, op.arg  # resolved to the handle oid at execution
        return op.target.oid, None

    def label_ahead(self, tid: int) -> Optional[PendingInfo]:
        """``tid``'s :meth:`pending_info` when it is the label
        (kind, location, released oid) of the event ``step(tid)``
        would stamp, so a caller can act on the step before it runs.

        None where the label is not a pure function of the pending
        op: SPAWN (the child handle's oid is allocated at execution),
        JOIN (the joined handle is resolved at execution), and a timed
        op or a parked timed waiter (the step may fire a TIME_FIRE
        instead, and a timed op's record names the clock as its
        released oid, which the event does not).
        """
        op = self.threads[tid].pending
        if op is None or op.timeout is not None:
            return None
        kind = op.kind
        if kind is _SPAWN or kind is _JOIN:
            return None
        info = op.info
        if info is not None and info.tid == tid:
            return info
        return self.pending_info(tid)

    def lookahead(self, tid: int) -> Optional[Lookahead]:
        """The fingerprints ``step(tid)`` would leave behind, without
        executing anything: a caller that only needs them can decide
        before paying for the step.  The returned :class:`Lookahead`
        reads them from the clock tables as they stand, so it is valid
        until the next step.

        None where :meth:`label_ahead` is, and for a step that would
        hit ``max_events``.
        """
        if len(self.schedule) >= self.max_events:
            return None
        info = self.label_ahead(tid)
        if info is None:
            return None
        return Lookahead(
            self.engine, tid, info.kind, info.oid, info.key,
            info.released_mutex_oid,
        )

    # ------------------------------------------------------------------
    # Stepping
    def replay_prefix(self, tids: Sequence[int]) -> None:
        """Step each thread choice of a schedule prefix in turn.  A
        choice that is not enabled (the prefix diverged from this
        program) raises :class:`~repro.errors.DisabledThreadError`
        naming the blocked op, like any other :meth:`step`."""
        for tid in tids:
            self.step(tid)

    def step(self, tid: int) -> Event:
        """Execute ``tid``'s pending operation and return its stamped
        :class:`Event` (``index`` is its schedule position).  The
        executor records only the schedule: a caller that needs the
        events keeps them.  A thread that is not enabled raises
        :class:`~repro.errors.DisabledThreadError`; the check is one
        membership test while :meth:`enabled` is memoised.
        """
        if self.error is not None or self.truncated:
            raise SchedulerError("execution already terminated")
        t = self.threads[tid]
        if t.status != _Status.RUNNABLE or t.pending is None:
            if t.status == _Status.WAITING and t.deadline is not None:
                # a timed condvar waiter: stepping it while parked means
                # its timeout fires (the wait returns False)
                return self._fire_parked_timeout(t)
            raise SchedulerError(f"thread {tid} has no pending operation")
        enabled_cache = self._enabled_cache
        if enabled_cache is not None:
            if tid not in enabled_cache:
                raise DisabledThreadError(
                    tid, enabled_cache, self._blocked_reason(t)
                )
        else:
            self._admit_barriers()
            if t.pending.timeout is None and not self._op_enabled(t):
                raise DisabledThreadError(
                    tid, self.enabled(), self._blocked_reason(t)
                )
        schedule = self.schedule
        if len(schedule) >= self.max_events:
            self.truncated = True
            self._enabled_cache = None
            raise SchedulerError(
                f"schedule exceeded max_events={self.max_events}"
            )

        op = t.pending
        if op.timeout is not None and not self._op_enabled(t):
            # the base operation cannot run now, so stepping this thread
            # executes the timeout branch instead — a deterministic
            # function of the current state, so replays agree
            return self._fire_pending_timeout(t, op)
        kind = op.kind
        value: Any = None
        released_mutex_oid: Optional[int] = None
        woken: Optional[List[_GuestThread]] = None
        spawned: Optional[_GuestThread] = None
        parked = False
        throw: Optional[GuestError] = None
        # _op_location, inlined (per-step hot path): data kinds key on
        # (target oid, element); SPAWN/YIELD touch nothing; JOIN is
        # resolved to the joined thread's handle in its branch below.
        if IS_DATA[kind]:
            oid, key = op.target.oid, op.arg
        elif kind is _YIELD or kind is _SPAWN or kind is _JOIN:
            oid, key = -1, None
        else:
            oid, key = op.target.oid, None
        if kind is _BARRIER_WAIT:
            self._barrier_pending -= 1
        elif kind is _READ and op.arg2 is not None:
            self._pred_watch -= 1
        # Conditional invalidation: a non-disturbing op can only change
        # the *stepping* thread's enabledness, so the memoised enabled
        # list survives and gets patched after the generator resumes.
        if _DISTURBING[kind] or (self._pred_watch and (
                kind is _WRITE or kind is _RMW)):
            self._enabled_cache = None
            patch = False
        else:
            patch = self._enabled_cache is not None

        try:
            if not _CORE[kind]:
                # the sync-primitive protocol: the target executes its
                # own operation (rare cross-thread effects arrive
                # through the fx_* scratch, drained below)
                value = op.target.op_apply(op, self, t)
            elif kind is _SPAWN:
                fn, args = op.arg
                spawned = self._create_thread(fn, args, "")
                value = spawned.tid
                oid = spawned.handle.oid
                self._spawn_origin[spawned.tid] = (tid, t.spawn_count)
                t.spawn_count += 1
            elif kind is _JOIN:
                oid = self.threads[op.arg].handle.oid
            elif kind is _EXIT:
                if op.arg is not None:  # thread died on a guest error
                    t.crashed = True
                    t.throw_exc = op.arg  # per-thread record (state hash)
                    value = op.arg  # surfaced by trace renderers
            # else YIELD: a pure scheduling point, nothing to execute
        except GuestError as exc:  # pragma: no cover - defensive
            self.error = exc
            t.status = _Status.FINISHED
            t.pending = None
            self._unfinished -= 1
            self._enabled_cache = None
            raise
        if self._fx_any:
            self._fx_any = False
            released_mutex_oid, self._fx_released = self._fx_released, None
            parked, self._fx_parked = self._fx_parked, False
            throw, self._fx_throw = self._fx_throw, None
            if self._fx_woken is not None:
                if not GIVES_OPS[kind]:
                    # DPOR race-tests a step before it runs only when
                    # every other thread keeps its op (KindSpec)
                    raise SchedulerError(
                        f"{kind.name} woke threads, but its KindSpec "
                        f"does not declare gives_ops"
                    )
                woken = [self.threads[w] for w in self._fx_woken]
                self._fx_woken = None
        if t.deadline is not None and not parked:
            # the base operation won.  A timed condvar wait that parks
            # keeps its deadline armed across the parked phase
            # (fire-vs-notify is the race)
            t.deadline = None

        clock, lazy_clock = self.engine.observe(
            tid, kind, oid, key, released_mutex_oid
        )
        # positional: the per-event record is built on the hot path
        event = Event(
            len(schedule), tid, t.tindex, kind, oid, key, value,
            clock, lazy_clock, released_mutex_oid,
        )
        t.tindex += 1
        schedule.append(tid)

        # Post-event bookkeeping that needs the stamped clocks.
        if spawned is not None:
            # child happens-after the spawn event (in both relations)
            self.engine.register_thread_clocks(spawned.tid, clock, lazy_clock)
        if woken:
            for w in woken:
                # notify -> wakeup edge, in both relations
                self.engine.add_release_edge_clocks(clock, lazy_clock, w.tid)
                w.status = _Status.RUNNABLE
                w.resuming = True
                w.pending = Op(OpKind.LOCK, w.wait_mutex)
                if w.deadline is not None:
                    # the notify won the race against this waiter's
                    # timeout: disarm it, record the True wake value
                    w.deadline = None
                    w.parked_on = None
                    w.wake_value = True

        # Resume the generator (or finalise the thread).
        if parked:
            t.pending = None  # parked until woken (fx_wake)
        elif kind is _EXIT:
            t.status = _Status.FINISHED
            t.pending = None
            self._unfinished -= 1
        elif t.resuming and kind is _LOCK:
            # the implicit re-acquire after a wait: now the guest's
            # `yield api.wait(...)` finally returns — with None for
            # untimed waits, True/False (notified / timed out) for
            # timed ones
            t.resuming = False
            t.wait_mutex = None
            wake_value, t.wake_value = t.wake_value, None
            self._advance(t, wake_value)
        elif throw is not None:
            self._advance_throw(t, throw)
        else:
            self._advance(t, value)

        if patch:
            # Patch the surviving memoised enabled list: only this
            # thread's entry can have changed.  A copy is patched (never
            # the published list — explorers hold references to it).
            np = t.pending
            if np is not None and _ARRIVAL[np.kind]:
                # a new arrival at an arrival-sensitive op (barrier
                # cohort member, rendezvous receiver) can enable other
                # threads: fall back to invalidation
                self._enabled_cache = None
            else:
                cache = self._enabled_cache
                now = np is not None and (
                    np.timeout is not None or self._op_enabled(t)
                )
                if now != (tid in cache):
                    cache = cache.copy()
                    if now:
                        insort(cache, tid)
                    else:
                        cache.remove(tid)
                    self._enabled_cache = cache
        return event

    # ------------------------------------------------------------------
    # Virtual-time fire paths.  Both execute a synthesised TIME_FIRE
    # event on the program clock: its primary location is the clock
    # (keeping all time events totally ordered, so "now" is a function
    # of the HB fingerprint) and its secondary location is the awaited
    # object the thread withdraws from (so DPOR race-reverses it
    # against the operation that would have satisfied the wait).
    def _fire_pending_timeout(self, t: _GuestThread, op: Op) -> Event:
        """The scheduler chose the timeout branch of a timed blocking
        op: withdraw the pending op and deliver the primitive's
        timeout result to the guest."""
        if op.kind is _BARRIER_WAIT:
            self._barrier_pending -= 1
        elif op.kind is _READ and op.arg2 is not None:
            self._pred_watch -= 1
        # always disturbing: withdrawing the op can disable another
        # thread (e.g. a rendezvous sender loses its pending receiver)
        self._enabled_cache = None
        self._clock.advance_to(self._clock.now + t.deadline)
        t.deadline = None
        value = op.target.op_timeout_result(op)
        event = self._record_time_fire(t, op.target.oid, value)
        self._advance(t, value)
        return event

    def _fire_parked_timeout(self, t: _GuestThread) -> Event:
        """A timed condvar waiter's deadline fires while parked: it is
        withdrawn from the wait queue and re-acquires its mutex, after
        which the guest's wait returns False."""
        if len(self.schedule) >= self.max_events:
            self.truncated = True
            self._enabled_cache = None
            raise SchedulerError(
                f"schedule exceeded max_events={self.max_events}"
            )
        cv = t.parked_on
        t.parked_on = None
        cv.withdraw_waiter(t.tid)
        self._enabled_cache = None
        self._clock.advance_to(self._clock.now + t.deadline)
        t.deadline = None
        t.status = _Status.RUNNABLE
        t.resuming = True
        t.pending = Op(OpKind.LOCK, t.wait_mutex)
        t.wake_value = False
        return self._record_time_fire(t, cv.oid, False)

    def _record_time_fire(self, t: _GuestThread, released_oid: int,
                          value: Any) -> Event:
        """Record one TIME_FIRE event for ``t`` (clock engines,
        schedule, counters) and return it."""
        tid = t.tid
        oid = self._clock.oid
        clock, lazy_clock = self.engine.observe(
            tid, _TIME_FIRE, oid, None, released_oid
        )
        event = Event(
            len(self.schedule), tid, t.tindex, _TIME_FIRE, oid, None,
            value, clock, lazy_clock, released_oid,
        )
        t.tindex += 1
        self.schedule.append(tid)
        return event

    # ------------------------------------------------------------------
    # Snapshot / fork (see repro.runtime.snapshot for the design)
    def snapshot(self) -> ExecutorSnapshot:
        """Capture the complete executor state between steps.

        Per thread, object and clock-table entry the cost is constant:
        thread tapes are shared (append-only copy-on-write), the clock
        engine forks by sharing its published tuples, and each shared
        object contributes a few scalars.  The schedule is copied, so a
        snapshot also costs time and memory linear in its depth.
        """
        finished = _Status.FINISHED
        records = [
            ThreadRecord(
                t.name,
                t.status,
                t.tindex,
                t.resuming,
                t.crashed,
                t.wait_mutex.oid if t.wait_mutex is not None else None,
                t.tape,
                len(t.tape),
                t.spawn_count,
                # dead generators — finished threads and fx_throw
                # crashes awaiting their EXIT — are only rebuilt when
                # children need their SPAWN ops' fresh (fn, args)
                # closures, or when the program opted in to full tape
                # replay because guests carry host-side state
                (t.status != finished and t.throw_exc is None)
                or t.spawn_count > 0
                or self._replay_all_tapes,
                t.throw_exc,
                t.deadline,
                t.wake_value,
                t.parked_on.oid if t.parked_on is not None else None,
                t.trie_node,
            )
            for t in self.threads
        ]
        return ExecutorSnapshot(
            self.program,
            tuple(self.schedule),
            records,
            dict(self._spawn_origin),
            [o.snapshot_state() for o in self.instance.registry.objects],
            self.engine.fork(),
            # restore template: every scalar/immutable executor
            # attribute, blitted into a restored executor's __dict__ in
            # one C-level dict update (from_snapshot overwrites the
            # per-restore values on top)
            {
                "_replay_all_tapes": self._replay_all_tapes,
                "max_events": self.max_events,
                "error": self.error,
                "truncated": self.truncated,
                "_unfinished": self._unfinished,
                "_barrier_pending": self._barrier_pending,
                "_pred_watch": self._pred_watch,
                "_static_threads": self._static_threads,
                "engine_name": self.engine.backend,
                "_enabled_cache": None,
                "_fx_any": False,
                "_fx_woken": None,
                "_fx_parked": False,
                "_fx_released": None,
                "_fx_throw": None,
            },
            self._optrie,
        )

    def fork(self) -> "Executor":
        """An independent executor continuing from the current state
        (equivalent to replaying ``self.schedule`` on a fresh one)."""
        return Executor.from_snapshot(self.snapshot())

    @staticmethod
    def _fast_forward(
        gen,
        tape: Sequence[Any],
        tape_len: int,
        handle: ThreadHandle,
        collect_spawns: bool,
    ) -> Tuple[Op, List[Op], List[Any]]:
        """Re-feed ``tape[:tape_len]`` into a fresh generator.

        Returns ``(final pending op, executed SPAWN ops in order, the
        restored executor's own tape copy)``.  This is the whole
        per-event cost of a snapshot resume, so the common case — a
        thread that never spawned — runs a bare ``gen.send`` loop; the
        per-yield SPAWN scan only runs for threads known to have
        spawned.  The generator legitimately terminates only on the
        *last* re-fed value (the guest is deterministic); anything
        earlier means the snapshot and the program disagree.
        """
        new_tape: List[Any] = tape[:tape_len]  # slice of a list: a copy
        spawns: List[Op] = []
        i = -1
        try:
            op = next(gen)
            if collect_spawns:
                for i, v in enumerate(new_tape):
                    if op.kind is _SPAWN:
                        spawns.append(op)
                    op = gen.send(v)
            else:
                send = gen.send
                for i, v in enumerate(new_tape):
                    op = send(v)
            return op, spawns, new_tape
        except StopIteration:
            if i != tape_len - 1:
                raise SchedulerError(
                    "snapshot tape diverged: generator finished at "
                    f"send {i + 1} of {tape_len}"
                ) from None
            return Op(OpKind.EXIT, handle), spawns, new_tape
        except GuestError as exc:
            if i != tape_len - 1:
                raise SchedulerError(
                    "snapshot tape diverged: guest error at "
                    f"send {i + 1} of {tape_len}"
                ) from exc
            return Op(OpKind.EXIT, handle, exc), spawns, new_tape

    def release_instance(self):
        """Hand back this executor's program, instance and thread
        handles for reuse by a later :meth:`from_snapshot` (the
        executor must not be used afterwards).  The instance's op-trie
        comes along, warm.

        Sound only when all cross-thread mutable state lives in
        registry objects — ``restore_state`` then resets everything a
        previous life touched.  That is exactly the DSL contract the
        replay-equivalence guarantees already rest on; programs that
        opt into ``replay_finished_threads`` (the shim frontend)
        carry host-side Python state outside the registry and are
        excluded, so this returns ``None`` for them.  So are instances
        whose registry grew past its boot size: an object created at
        runtime is re-created when the creating thread's tape is
        fast-forwarded, so handing such a registry to
        :meth:`from_snapshot` would register duplicates on top of the
        survivors from the previous life.  An executed SPAWN registers
        the child's handle, so an executor that ran one returns
        ``None`` too.
        """
        if self._replay_all_tapes:
            return None
        if len(self.instance.registry.objects) != self._boot_objects:
            return None
        return (self.program, self.instance,
                [t.handle for t in self.threads])

    @classmethod
    def from_snapshot(cls, snap: ExecutorSnapshot, reuse=None) -> "Executor":
        """Rebuild a live executor from a snapshot.

        Observably identical to constructing a fresh executor and
        calling ``replay_prefix(snap.schedule)`` — same enabled sets,
        fingerprints, state hashes and subsequent behaviour — but pays
        at most one generator resume per recorded send instead of the
        full per-event scheduling/clock pipeline.  A snapshot can be
        restored any number of times.

        ``reuse`` optionally recycles a retired executor's program,
        instance and thread handles (from :meth:`release_instance`):
        ``program.instantiate()`` and the handle registrations are
        skipped and ``restore_state`` resets every object.  A handoff
        that does not fit the snapshot (a different program, or a
        thread or object count that differs because the snapshot has
        executed a SPAWN) is discarded for a fresh instance.

        Every thread is rebuilt, in one of two ways.  On the instance
        whose op-trie the snapshot recorded positions in (a recycled
        one), a thread with a recorded node is put back on it and
        served from the trie, with no generator and no per-send work.
        Any other thread gets a fresh generator fast-forwarded along
        its tape.  A fresh instance has a fresh trie, so recorded
        positions are only used for a snapshot in which no SPAWN has
        executed.  Dynamically spawned threads are therefore always
        fast-forwarded, from the SPAWN ops their parents'
        fast-forwards collect.
        """
        handles = None
        if reuse is not None:
            program, instance, handles = reuse
            if (
                program is not snap.program
                or len(handles) != len(snap.thread_records)
                or len(instance.registry.objects) != len(snap.object_states)
            ):
                handles = None
        ex = cls.__new__(cls)
        d = ex.__dict__
        d.update(snap.restore_fields)
        static_threads = d["_static_threads"]
        if handles is not None:
            boot_objects = len(instance.registry.objects)
        else:
            instance = snap.program.instantiate()
            # build-time objects are present already; the static thread
            # handles are registered in the rebuild loop below
            boot_objects = len(instance.registry.objects) + static_threads
        optrie = None
        if _OPCACHE_ON and not d["_replay_all_tapes"]:
            optrie = instance.optrie
            if optrie is None:
                optrie = instance.optrie = OpTrie()
        d["program"] = snap.program
        d["_optrie"] = optrie
        d["instance"] = instance
        d["_boot_objects"] = boot_objects
        d["engine"] = snap.engine.fork()  # fork preserves the backend type
        d["_clock"] = instance.clock
        own_threads = d["threads"] = []
        d["schedule"] = list(snap.schedule)
        spawn_origin = snap.spawn_origin
        d["_spawn_origin"] = dict(spawn_origin)
        registry = instance.registry
        static = instance.threads
        # executed SPAWN ops per fast-forwarded parent, to hand fresh
        # (fn, args) closures to dynamically spawned children (parents
        # always have smaller tids, so one tid-ordered pass suffices)
        spawn_ops: Dict[int, List[Op]] = {}
        fast_forward = cls._fast_forward
        objects = registry.objects
        guest_new = _GuestThread.__new__
        # recorded nodes belong to the snapshot's trie (None when off)
        on_trie = snap.optrie is optrie
        for tid, rec in enumerate(snap.thread_records):
            # handles registered in tid order reproduce the original
            # oid assignment (spawn order is tid order); a reused
            # instance already carries them at the same oids
            handle = (
                handles[tid] if handles is not None
                else ThreadHandle(registry, tid)
            )
            t = guest_new(_GuestThread)
            t.tid = tid
            t.name = rec.name
            t.gen = None
            t.handle = handle
            status = t.status = rec.status
            t.tindex = rec.tindex
            resuming = t.resuming = rec.resuming
            t.crashed = rec.crashed
            t.spawn_count = rec.spawn_count
            throw_exc = t.throw_exc = rec.throw_exc
            t.deadline = rec.deadline
            t.wake_value = rec.wake_value
            t.trie_node = None
            t.pinfo = None
            pending: Optional[Op] = None
            if rec.needs_replay:
                node = rec.trie_node if on_trie else None
                if node is not None:
                    # the recorded op-trie position: served from the
                    # trie, no generator
                    pending = node[0]
                    t.tape = rec.tape[:rec.tape_len]
                    t.trie_node = node
                else:
                    if tid < static_threads:
                        body, args, _name = static[tid]
                    else:
                        ptid, ordinal = spawn_origin[tid]
                        body, args = spawn_ops[ptid][ordinal].arg
                    t.gen = body(_thread_api(tid), *args)
                    pending, spawns, t.tape = fast_forward(
                        t.gen, rec.tape, rec.tape_len, handle,
                        rec.spawn_count > 0,
                    )
                    if spawns:
                        spawn_ops[tid] = spawns
            else:
                # finished, spawned nothing: the generator is dead
                # weight and the tape is never replayed again
                t.tape = rec.tape
            # resolved only after this thread's fast-forward: programs
            # that create objects at runtime (the shim frontend) have an
            # empty registry until the creating thread's tape replays,
            # and the setup-phase rule puts every creation on a tid no
            # greater than any waiter's
            wait_mutex = t.wait_mutex = (
                objects[rec.wait_mutex_oid]
                if rec.wait_mutex_oid is not None else None
            )
            t.parked_on = (
                objects[rec.parked_on_oid]
                if rec.parked_on_oid is not None else None
            )
            if status is not _RUNNABLE:
                t.pending = None          # finished, or parked on a CV
            elif resuming:
                # the synthesized post-notify re-acquire of the wait
                # mutex (never a generator yield)
                t.pending = Op(_LOCK, wait_mutex)
            elif throw_exc is not None:
                # crashed by fx_throw, EXIT not yet executed: the
                # pending EXIT is resynthesized from the recorded error
                # (the rebuilt generator, if any, stays at its final
                # yield and is never resumed)
                t.pending = Op(_EXIT, handle, throw_exc)
            else:
                if (
                    pending is not None
                    and pending.target is None
                    and (pending.kind is _SLEEP
                         or pending.kind is _TIMER_TICK)
                ):
                    # fast-forward bypasses _advance: re-point the
                    # fresh SLEEP/TIMER_TICK op at this instance's
                    # clock (the deadline is restored from the record)
                    pending.target = instance.clock
                t.pending = pending
            own_threads.append(t)
        if len(objects) != len(snap.object_states):
            raise SchedulerError(
                f"snapshot/registry mismatch: {len(snap.object_states)} "
                f"captured states for {len(objects)} objects"
            )
        for obj, state in zip(objects, snap.object_states):
            obj.restore_state(state)
        return ex

    # ------------------------------------------------------------------
    # Termination
    def is_done(self) -> bool:
        """True when the run is over (normally or abnormally).  Detects
        and records deadlock as a side effect."""
        if self.error is not None or self.truncated:
            return True
        if not self._unfinished:
            return True
        if len(self.schedule) >= self.max_events:
            self.truncated = True
            return True
        if not self.enabled():
            self.error = DeadlockError(self.runnable_unfinished())
            return True
        return False

    def finish(self) -> TraceResult:
        """Package the result; the run must be done.  It carries no
        events and no ``final_state``: :func:`~repro.runtime.schedule.execute`
        fills both for the callers that read them."""
        if not self.is_done():
            raise SchedulerError("finish() called before the run is done")
        # Per-thread progress carries each thread's own crash type, so
        # the digest is invariant under commuting independent crash
        # EXITs (two threads dying of different guest errors reach the
        # same terminal state whichever EXIT the schedule ran first).
        progress = tuple(
            (
                t.tindex,
                type(t.throw_exc).__name__ if t.crashed else None,
            )
            for t in self.threads
        )
        # The reported representative failure is likewise deterministic
        # per equivalence class: executor-level errors (deadlock) win,
        # then the lowest-tid crashed thread's guest error.
        error = self.error
        if error is None:
            error = next(
                (t.throw_exc for t in self.threads if t.crashed), None
            )
        state_hash = compute_state_hash(
            self.instance.registry, progress, self.error, self.truncated
        )
        return TraceResult(
            program_name=self.program.name,
            schedule=list(self.schedule),
            hbr_fp=self.engine.hbr_fingerprint(),
            lazy_fp=self.engine.lazy_fingerprint(),
            state_hash=state_hash,
            error=error,
            truncated=self.truncated,
        )

    def close(self) -> None:
        """Explicitly tear down guest generators (abandoned runs).

        Dropping an unfinished executor leaves guests suspended at a
        yield; CPython closes them at collection time, and a guest
        parked inside an instrumented ``with`` block re-yields during
        ``GeneratorExit`` cleanup (the shim ``__exit__`` releases the
        lock through the op protocol), which the interpreter reports
        as an ignored ``GeneratorExit`` on stderr.  Closing here
        retries until the unwinding completes, so abandoned replays
        stay quiet.  The executor must not be stepped — or recycled
        into a pool — afterwards.
        """
        for t in self.threads:
            gen = t.gen
            if gen is None:
                continue
            # walk the yield-from delegation chain (shim guests run
            # inside wrapper generators): closing only the outermost
            # would orphan the suspended user generator, whose own
            # GC-time close then re-raises the noise this silences
            chain = [gen]
            while True:
                sub = getattr(chain[-1], "gi_yieldfrom", None)
                if sub is None or not hasattr(sub, "close"):
                    break
                chain.append(sub)
            for g in reversed(chain):
                # each instrumented with-block level re-yields once
                # while unwinding; the bound is paranoia against a
                # guest that swallows GeneratorExit forever
                for _ in range(16):
                    try:
                        g.close()
                        break
                    except RuntimeError:
                        continue
                    except Exception:
                        break  # guest cleanup raised; run is discarded

    # ------------------------------------------------------------------
    # Invariant checking (tests only)
    def _recomputed_enabled(self) -> Set[int]:
        """Reference enabledness, recomputed from scratch — the tests
        cross-check the memoised/incremental sets against this."""
        self._admit_barriers()
        return {
            t.tid
            for t in self.threads
            if (
                t.status == _Status.RUNNABLE
                and t.pending is not None
                and (t.pending.timeout is not None or self._op_enabled(t))
            )
            or (t.status == _Status.WAITING and t.deadline is not None)
        }
