"""The operation vocabulary available to guest threads.

Guest code is written as Python generator functions whose first
parameter is a :class:`ThreadAPI`.  Every visible operation is
``yield``-ed; everything between two yields executes atomically (there
is no preemption point inside local computation, matching SCT tools
that instrument only visible operations)::

    def worker(api, m, x, y):
        yield api.lock(m)
        v = yield api.read(x)
        yield api.unlock(m)
        yield api.write(y, v + 1)

Helpers can be composed with ``yield from``::

    def locked_inc(api, m, var):
        yield api.lock(m)
        v = yield api.read(var)
        yield api.write(var, v + 1)
        yield api.unlock(m)

The methods merely *construct* :class:`~repro.core.events.Op` values;
execution happens in the :class:`~repro.runtime.executor.Executor`.
"""

from __future__ import annotations

from typing import Any, Callable, Optional

from ..core.events import Op, OpKind, to_ticks
from ..errors import GuestAssertionError
from .atomic import AtomicInt
from .barrier import Barrier
from .channel import Channel
from .condvar import CondVar
from .future import Future
from .mutex import Mutex
from .rwlock import RWLock
from .semaphore import Semaphore


def _ticks(timeout: Optional[float]) -> Optional[int]:
    """Seconds -> integer virtual ticks (None passes through)."""
    return None if timeout is None else to_ticks(timeout)


class ThreadAPI:
    """Factory for guest operations; one instance per guest thread."""

    __slots__ = ("tid",)

    def __init__(self, tid: int) -> None:
        self.tid = tid

    # -- plain data ------------------------------------------------------
    def read(self, var, key: Any = None) -> Op:
        """Read ``var`` (or element ``key`` of an array/dict)."""
        return Op(OpKind.READ, var, key)

    def write(self, var, value: Any, key: Any = None) -> Op:
        """Write ``value`` to ``var`` (or to element ``key``)."""
        return Op(OpKind.WRITE, var, key, value)

    def await_value(self, var, predicate: Callable[[Any], bool], key: Any = None,
                    timeout: Optional[float] = None) -> Op:
        """Blocking read: enabled only once ``predicate(value)`` holds.

        This models a spin-wait loop without generating one schedule per
        spin iteration (the standard *await* construct of modelling
        languages); the executed event is an ordinary READ.  With
        ``timeout`` the wait may instead end with the timeout firing
        (an explorable branch) and the yield returns ``False``.
        """
        return Op(OpKind.READ, var, key, predicate, timeout=_ticks(timeout))

    # -- atomics -----------------------------------------------------------
    def load(self, atom: AtomicInt) -> Op:
        return Op(OpKind.READ, atom)

    def store(self, atom: AtomicInt, value: int) -> Op:
        return Op(OpKind.WRITE, atom, None, value)

    def fetch_add(self, atom: AtomicInt, delta: int = 1) -> Op:
        """Atomically add ``delta``; the yield returns the *old* value."""
        return Op(OpKind.RMW, atom, None, AtomicInt._fetch_add(delta))

    def add_fetch(self, atom: AtomicInt, delta: int = 1) -> Op:
        """Atomically add ``delta``; the yield returns the *new* value."""
        return Op(OpKind.RMW, atom, None, AtomicInt._add_fetch(delta))

    def cas(self, atom: AtomicInt, expect: int, new: int) -> Op:
        """Compare-and-swap; the yield returns True on success."""
        return Op(OpKind.RMW, atom, None, AtomicInt._cas(expect, new))

    def exchange(self, atom: AtomicInt, new: int) -> Op:
        """Atomic swap; the yield returns the old value."""
        return Op(OpKind.RMW, atom, None, AtomicInt._exchange(new))

    def rmw(self, var, update: Callable[[Any], Any], key: Any = None) -> Op:
        """General atomic update: ``update(old) -> (new, result)``."""
        return Op(OpKind.RMW, var, key, update)

    # -- mutexes -----------------------------------------------------------
    def lock(self, m: Mutex, timeout: Optional[float] = None) -> Op:
        """Acquire ``m``.  With ``timeout`` the acquisition may instead
        time out after ``timeout`` virtual seconds (the scheduler
        explores both branches); the yield then returns ``False``
        instead of ``None``."""
        return Op(OpKind.LOCK, m, timeout=_ticks(timeout))

    def unlock(self, m: Mutex) -> Op:
        return Op(OpKind.UNLOCK, m)

    # -- condition variables -------------------------------------------------
    def wait(self, cv: CondVar, m: Mutex, timeout: Optional[float] = None) -> Op:
        """Release ``m``, park on ``cv``; returns after re-acquiring ``m``.

        Untimed waits yield ``None``.  With ``timeout`` the yield
        returns ``True`` if a notify woke the thread, ``False`` if the
        virtual-time budget fired first (either way the mutex has been
        re-acquired) — the ``Condition.wait(timeout=...)`` contract."""
        return Op(OpKind.WAIT, cv, None, m, timeout=_ticks(timeout))

    def notify(self, cv: CondVar) -> Op:
        return Op(OpKind.NOTIFY, cv)

    def notify_all(self, cv: CondVar) -> Op:
        return Op(OpKind.NOTIFY_ALL, cv)

    # -- semaphores ------------------------------------------------------------
    def sem_acquire(self, sem: Semaphore, timeout: Optional[float] = None) -> Op:
        """P on ``sem``; with ``timeout`` the yield returns ``False``
        when the timeout fires before a permit arrives."""
        return Op(OpKind.SEM_ACQUIRE, sem, timeout=_ticks(timeout))

    def sem_release(self, sem: Semaphore) -> Op:
        return Op(OpKind.SEM_RELEASE, sem)

    # -- barriers ---------------------------------------------------------------
    def barrier_wait(self, b: Barrier) -> Op:
        return Op(OpKind.BARRIER_WAIT, b)

    # -- reader/writer locks -----------------------------------------------------
    def rlock(self, rw: RWLock) -> Op:
        return Op(OpKind.RLOCK, rw)

    def runlock(self, rw: RWLock) -> Op:
        return Op(OpKind.RUNLOCK, rw)

    def wlock(self, rw: RWLock) -> Op:
        return Op(OpKind.WLOCK, rw)

    def wunlock(self, rw: RWLock) -> Op:
        return Op(OpKind.WUNLOCK, rw)

    # -- channels ----------------------------------------------------------------
    def chan_send(self, ch: Channel, value: Any,
                  timeout: Optional[float] = None) -> Op:
        """Deposit ``value`` into ``ch`` (blocks while the buffer is
        full; a rendezvous send blocks until a receiver is pending).
        Sending on a closed channel is a guest error.  With ``timeout``
        the yield returns :data:`~repro.core.events.TIMED_OUT` when the
        budget fires before space appears."""
        return Op(OpKind.CHAN_SEND, ch, value, timeout=_ticks(timeout))

    def chan_recv(self, ch: Channel, timeout: Optional[float] = None) -> Op:
        """Take the oldest value from ``ch`` (blocks while the channel
        is open and empty).  Once the channel is closed and drained,
        yields the :data:`~repro.runtime.channel.CLOSED` sentinel.  With
        ``timeout`` the yield returns
        :data:`~repro.core.events.TIMED_OUT` when the budget fires
        while the channel is still empty."""
        return Op(OpKind.CHAN_RECV, ch, timeout=_ticks(timeout))

    def chan_close(self, ch: Channel) -> Op:
        """Close ``ch``: every blocked ``recv`` becomes enabled (the
        sentinel flows once the buffer drains).  Closing twice is a
        guest error."""
        return Op(OpKind.CHAN_CLOSE, ch)

    # -- futures -----------------------------------------------------------------
    def fut_set(self, f: Future, value: Any) -> Op:
        """Complete ``f`` with ``value``; completing twice is a guest
        error."""
        return Op(OpKind.FUT_SET, f, value)

    def fut_get(self, f: Future, timeout: Optional[float] = None) -> Op:
        """Block until ``f`` is completed; yields its value.  With
        ``timeout`` the yield returns
        :data:`~repro.core.events.TIMED_OUT` when the budget fires
        before completion."""
        return Op(OpKind.FUT_GET, f, timeout=_ticks(timeout))

    def fut_done(self, f: Future) -> Op:
        """Non-blocking completion poll (an ordinary READ event);
        yields True/False."""
        return Op(OpKind.READ, f)

    # -- threads ------------------------------------------------------------------
    def spawn(self, fn: Callable, *args: Any) -> Op:
        """Start ``fn(api, *args)`` as a new guest thread; yields its tid."""
        return Op(OpKind.SPAWN, None, (fn, args))

    def join(self, tid: int) -> Op:
        """Block until guest thread ``tid`` terminates."""
        return Op(OpKind.JOIN, None, tid)

    # -- virtual time ------------------------------------------------------------
    def sleep(self, seconds: float) -> Op:
        """Advance virtual time by ``seconds``.  One SLEEP event on the
        program's clock: time jumps to the deadline when the scheduler
        executes it — wall time is never consulted.  Yields the new
        virtual now (in ticks)."""
        return Op(OpKind.SLEEP, None, timeout=to_ticks(seconds))

    def timer_tick(self, seconds: float) -> Op:
        """One period of a periodic timer elapsing (used by
        ``ProgramBuilder.timer``); semantically a SLEEP with its own
        kind so traces show timer firings distinctly."""
        return Op(OpKind.TIMER_TICK, None, timeout=to_ticks(seconds))

    # -- misc ------------------------------------------------------------------------
    def sched_yield(self) -> Op:
        """A pure scheduling point touching no shared state."""
        return Op(OpKind.YIELD)

    def guest_assert(self, condition: bool, message: str = "") -> None:
        """Assert a guest-level property.  Failure is recorded by the
        explorers as a property violation of the current schedule.  This
        is a plain call (no yield): it checks state the thread has
        already read."""
        if not condition:
            raise GuestAssertionError(self.tid, message)

