"""Guest program definition.

A :class:`Program` is a *recipe*: a name plus a builder function that,
when invoked, produces a fresh :class:`ProgramInstance` — fresh shared
objects and fresh thread generators.  Explorers re-build the instance
for every executed schedule, which guarantees runs are independent and
object ids are identical across runs (construction order is fixed).

Example::

    def build(p: ProgramBuilder):
        m = p.mutex("m")
        x = p.var("x", 0)
        y = p.var("y", 0)

        def t1(api):
            yield api.lock(m)
            v = yield api.read(x)
            yield api.unlock(m)
            yield api.write(y, v)

        p.thread(t1)
        p.thread(t1)

    program = Program("two_readers", build)
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Callable, Dict, List, Optional, Tuple

from .atomic import AtomicInt
from .barrier import Barrier
from .channel import Channel
from .condvar import CondVar
from .future import Future
from .mutex import Mutex
from .objects import ObjectRegistry, SharedObject
from .rwlock import RWLock
from .semaphore import Semaphore
from .sharedvar import SharedArray, SharedDict, SharedVar
from .vclock import ClockObject

#: A guest thread body: generator function taking (api, *args).
ThreadBody = Callable[..., Any]


class ProgramBuilder:
    """Handed to a program's build function to declare shared state and
    threads.  All declarations happen before execution starts, so object
    and thread ids are deterministic."""

    def __init__(self) -> None:
        self.registry = ObjectRegistry()
        self.threads: List[Tuple[ThreadBody, Tuple[Any, ...], str]] = []
        self.named: Dict[str, SharedObject] = {}

    # -- shared state ----------------------------------------------------
    def var(self, name: str, initial: Any = None) -> SharedVar:
        return self._remember(SharedVar(self.registry, initial, name))

    def array(self, name: str, initial) -> SharedArray:
        return self._remember(SharedArray(self.registry, initial, name))

    def dict(self, name: str, initial: Optional[Dict] = None) -> SharedDict:
        return self._remember(SharedDict(self.registry, initial, name))

    def atomic(self, name: str, initial: int = 0) -> AtomicInt:
        return self._remember(AtomicInt(self.registry, initial, name))

    def mutex(self, name: str) -> Mutex:
        return self._remember(Mutex(self.registry, name))

    def condition(self, name: str) -> CondVar:
        return self._remember(CondVar(self.registry, name))

    def semaphore(self, name: str, initial: int = 0) -> Semaphore:
        return self._remember(Semaphore(self.registry, initial, name))

    def barrier(self, name: str, parties: int) -> Barrier:
        return self._remember(Barrier(self.registry, parties, name))

    def rwlock(self, name: str) -> RWLock:
        return self._remember(RWLock(self.registry, name))

    def channel(self, name: str, capacity: int = 1) -> Channel:
        """A bounded MPMC channel (``capacity=0`` makes it rendezvous)."""
        return self._remember(Channel(self.registry, capacity, name))

    def future(self, name: str) -> Future:
        return self._remember(Future(self.registry, name))

    def _remember(self, obj: SharedObject) -> SharedObject:
        if obj.name in self.named:
            raise ValueError(f"duplicate shared object name {obj.name!r}")
        self.named[obj.name] = obj
        return obj

    # -- threads -----------------------------------------------------------
    def thread(self, body: ThreadBody, *args: Any, name: str = "") -> int:
        """Declare a static guest thread ``body(api, *args)``; returns its
        thread id (assigned in declaration order)."""
        tid = len(self.threads)
        self.threads.append((body, args, name or f"T{tid}"))
        return tid

    def timer(self, body: ThreadBody, *args: Any, period: float,
              count: int, name: str = "") -> int:
        """Declare a periodic timer thread: every virtual ``period``
        seconds it runs one iteration of ``body(api, *args)`` (a
        generator function), ``count`` times in total.  Each period
        elapses as one explorable TIMER_TICK event on the virtual
        clock — wall time is never consulted."""
        if count < 1:
            raise ValueError(f"timer needs count >= 1, got {count}")

        def timer_body(api, *a):
            for _ in range(count):
                yield api.timer_tick(period)
                yield from body(api, *a)

        return self.thread(timer_body, *args,
                           name=name or f"timer{len(self.threads)}")


@dataclass
class ProgramInstance:
    """One freshly-built copy of a program, ready to execute."""

    registry: ObjectRegistry
    threads: List[Tuple[ThreadBody, Tuple[Any, ...], str]]
    named: Dict[str, SharedObject]
    #: the per-program virtual clock (registered after the program's
    #: own objects, so declaration-order oids are unaffected)
    clock: ClockObject
    #: lazily-installed op-stream cache (:class:`~repro.runtime.optrie
    #: .OpTrie`); owned by this instance because cached ops close over
    #: its shared objects
    optrie: Any = field(default=None, repr=False, compare=False)


@dataclass(frozen=True)
class Program:
    """A named, re-buildable guest program."""

    name: str
    build: Callable[[ProgramBuilder], None]
    description: str = ""
    metadata: Dict[str, Any] = field(default_factory=dict, hash=False, compare=False)

    def instantiate(self) -> ProgramInstance:
        builder = ProgramBuilder()
        self.build(builder)
        if not builder.threads:
            raise ValueError(f"program {self.name!r} declares no threads")
        clock = ClockObject(builder.registry)
        return ProgramInstance(builder.registry, builder.threads,
                               builder.named, clock)
