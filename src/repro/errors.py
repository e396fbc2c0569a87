"""Exception hierarchy for the ``repro`` library.

Errors are split into two families:

* *Host* errors (:class:`ReproError` subclasses other than
  :class:`GuestError`) indicate misuse of the library or internal
  invariant violations — they propagate to the caller.
* *Guest* errors (:class:`GuestError` subclasses) represent property
  violations of the program under test — deadlocks, failed guest
  assertions.  Explorers record these as findings rather than crashing.
"""

from __future__ import annotations


class ReproError(Exception):
    """Base class for all errors raised by the ``repro`` library."""


class InvalidOpError(ReproError):
    """A guest thread yielded an operation that is illegal in the current
    runtime state (e.g. unlocking a mutex it does not hold)."""


class SchedulerError(ReproError):
    """A scheduler selected a thread that is not currently enabled, or a
    replay schedule diverged from the program's behaviour."""


class DisabledThreadError(SchedulerError):
    """A scheduler selected a thread whose pending operation is not
    enabled.  Carries the enabled tid set and the selected thread's
    blocking reason (from the primitive's ``blocking_desc``), so a
    diverged replay reports *why* the choice is infeasible rather than
    just that it is."""

    def __init__(self, tid: int, enabled, reason: str = ""):
        self.tid = tid
        self.enabled = tuple(enabled)
        self.reason = reason
        detail = f": {reason}" if reason else ""
        super().__init__(
            f"thread {tid} is not enabled{detail} "
            f"(enabled tids: {list(self.enabled)})"
        )


class ShimUsageError(ReproError):
    """Shim-frontend misuse by the *harness author*: constructing shim
    objects outside a checked program, creating shared state from a
    worker thread or after ``Thread.start()`` (which would make object
    ids schedule-dependent), or calling an API the shim cannot model.
    Host error: propagates instead of being recorded as a finding."""


class UnsupportedTimeoutError(ShimUsageError):
    """A ``timeout=`` argument at a shim call site the virtual clock
    cannot model (e.g. ``Barrier(timeout=...)``).  Most blocking shim
    calls — ``Lock.acquire``, ``Condition.wait``, ``Queue.get``,
    ``Event.wait``, ... — accept timeouts and route them onto the
    deterministic virtual clock; the few that do not raise this error
    naming the call site and the nearest supported alternative, instead
    of silently falling back to wall time."""

    def __init__(self, where: str, alternative: str):
        self.where = where
        self.alternative = alternative
        super().__init__(
            f"{where}: timeout is not supported under systematic "
            f"exploration at this call site; nearest supported "
            f"alternative: {alternative}"
        )


class InstrumentError(ReproError):
    """``repro.instrument`` could not rewrite a function into a guest
    (no retrievable source, an async/generator target, or a construct
    the AST pass does not support)."""


class GuestError(ReproError):
    """Base class for property violations of the program under test."""


class DeadlockError(GuestError):
    """No runnable thread remains but some threads have not terminated."""

    def __init__(self, blocked_threads, message: str = ""):
        self.blocked_threads = tuple(blocked_threads)
        super().__init__(
            message or f"deadlock: threads {list(self.blocked_threads)} blocked"
        )


class GuestAssertionError(GuestError):
    """A guest-level assertion (``api.guest_assert``) failed."""

    def __init__(self, thread_id: int, message: str = ""):
        self.thread_id = thread_id
        super().__init__(message or f"guest assertion failed in thread {thread_id}")


class GuestCrashError(GuestError):
    """An ordinary (non-``repro``) Python exception escaped a shim-guest
    thread — a plain ``assert``, ``ValueError``, ....  The shim driver
    wraps it so real-code bugs surface as per-thread findings, exactly
    like failed guest assertions, instead of crashing the host."""

    def __init__(self, thread_id: int, original: BaseException):
        self.thread_id = thread_id
        self.original_type = type(original).__name__
        super().__init__(
            f"T{thread_id} crashed: {self.original_type}: {original}"
        )


class ChannelError(GuestError):
    """Illegal channel use by the program under test: sending on a
    closed channel, or closing a channel twice.  Like an assertion
    failure, this crashes only the offending thread — explorers record
    it as a property violation of the schedule that exposed the race."""


class FutureError(GuestError):
    """Illegal future use by the program under test: completing an
    already-completed future.  Per-thread crash semantics, like
    :class:`ChannelError`."""
