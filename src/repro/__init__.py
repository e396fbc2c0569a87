"""repro — reproduction of *The Lazy Happens-Before Relation: Better
Partial-Order Reduction for Systematic Concurrency Testing* (Thomson &
Donaldson, PPoPP 2015).

The package provides:

* :mod:`repro.runtime` — a deterministic systematic-concurrency-testing
  substrate: guest programs written as generators, executed one visible
  operation at a time under a pluggable scheduler;
* :mod:`repro.core` — the regular and lazy happens-before relations,
  computed online via dual vector clocks, with canonical fingerprints;
* :mod:`repro.explore` — exploration strategies: exhaustive DFS,
  Flanagan–Godefroid DPOR, HBR caching, the paper's lazy HBR caching,
  a lazy-DPOR prototype (the paper's future work), plus random, PCT and
  preemption-bounded baselines;
* :mod:`repro.suite` — 96 benchmark program instances mirroring the
  paper's benchmark collection;
* :mod:`repro.analysis` — harnesses that regenerate the paper's
  Figure 2, Figure 3 and the state-counting inequality;
* :mod:`repro.shim` — the real-code frontend: drop-in
  ``threading``/``queue`` modules plus lightweight instrumentation, so
  ordinary Python programs are checked without rewriting them as
  generators.

Quickstart — check real code with :func:`check`::

    import repro
    from repro.shim import threading

    @repro.shared
    class Counter:
        def __init__(self):
            self.value = 0

    def main():
        c = Counter()
        def worker():
            c.value += 1          # racy read-modify-write
        t1 = threading.Thread(target=worker)
        t2 = threading.Thread(target=worker)
        t1.start(); t2.start(); t1.join(); t2.join()
        assert c.value == 2

    result = repro.check(main)    # DPOR over every distinct interleaving
    if result.bug_found:
        print(result.summary())   # minimized schedule + timeline

The generator DSL remains the precision frontend (every scheduling
point explicit)::

    from repro import Program
    import repro

    def build(p):
        m = p.mutex("m")
        x, y = p.var("x", 0), p.var("y", 0)
        def t1(api):
            yield api.lock(m)
            v = yield api.read(x)
            yield api.unlock(m)
            yield api.write(y, v + 1)
        p.thread(t1)
        p.thread(t1)

    result = repro.check(Program("demo", build), explorer="lazy-hbr-caching")
    print(result.stats.summary())
"""

from .check import CheckResult, check
from .core import (
    DualClockEngine,
    Event,
    FingerprintCache,
    Op,
    OpKind,
    PartialOrder,
    VectorClock,
    conflicts,
    conflicts_lazy,
)
from .errors import (
    ChannelError,
    DeadlockError,
    FutureError,
    GuestAssertionError,
    GuestCrashError,
    GuestError,
    InstrumentError,
    InvalidOpError,
    ReproError,
    SchedulerError,
    ShimUsageError,
)
from .shim import instrument, program_from_function, shared
from .runtime import (
    CLOSED,
    AtomicInt,
    Barrier,
    Channel,
    CondVar,
    Executor,
    Future,
    Mutex,
    Program,
    ProgramBuilder,
    RWLock,
    Semaphore,
    SharedArray,
    SharedDict,
    SharedVar,
    ThreadAPI,
    TraceResult,
    execute,
    is_feasible,
)

__version__ = "1.0.0"

__all__ = [
    "AtomicInt",
    "Barrier",
    "CLOSED",
    "Channel",
    "ChannelError",
    "CheckResult",
    "CondVar",
    "DeadlockError",
    "DualClockEngine",
    "Event",
    "Executor",
    "FingerprintCache",
    "Future",
    "FutureError",
    "GuestAssertionError",
    "GuestCrashError",
    "GuestError",
    "InstrumentError",
    "InvalidOpError",
    "Mutex",
    "Op",
    "OpKind",
    "PartialOrder",
    "Program",
    "ProgramBuilder",
    "RWLock",
    "ReproError",
    "SchedulerError",
    "Semaphore",
    "SharedArray",
    "SharedDict",
    "SharedVar",
    "ShimUsageError",
    "ThreadAPI",
    "TraceResult",
    "VectorClock",
    "check",
    "conflicts",
    "conflicts_lazy",
    "execute",
    "instrument",
    "is_feasible",
    "program_from_function",
    "shared",
    "__version__",
]
