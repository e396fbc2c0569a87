"""Micro-benchmarks of the hot paths (per the profiling guidance: the
measured bottlenecks are clock joins, fingerprint updates, and the
executor's step loop — these benches track their throughput)."""

from __future__ import annotations

import pytest

from repro.core.engines import available_backends, create_clock_engine
from repro.core.events import OpKind
from repro.core.fingerprint import FingerprintChain
from repro.core.vector_clock import VectorClock, tuple_leq
from repro.runtime.executor import Executor
from repro.runtime.schedule import execute
from repro.suite.counters import disjoint_coarse


def test_vector_clock_join(benchmark):
    a = VectorClock(8, range(8))
    b = VectorClock(8, reversed(range(8)))

    def join():
        c = a.copy()
        for _ in range(100):
            c.join_inplace(b)
        return c

    result = benchmark(join)
    assert result.snapshot()[0] == 7


def test_vector_clock_snapshot(benchmark):
    a = VectorClock(16, range(16))
    benchmark(lambda: [a.snapshot() for _ in range(100)])


def test_tuple_leq(benchmark):
    a = tuple(range(16))
    b = tuple(v + 1 for v in range(16))
    benchmark(lambda: [tuple_leq(a, b) for _ in range(100)])


def test_fingerprint_update(benchmark):
    def run():
        chain = FingerprintChain()
        clock = tuple(range(8))
        for i in range(1000):
            chain.update(i % 4, (i % 19, i % 7, None), clock)
        return chain.prefix_fingerprint()

    benchmark(run)


#: A representative per-event mix for the observe() isolation bench:
#: reads/writes on two variables (both dominance branches), a mutex
#: pair (the lazy side's skip path) and a keyed channel op.
_OBSERVE_MIX = (
    (OpKind.READ, 0, None), (OpKind.WRITE, 0, None),
    (OpKind.LOCK, 2, None), (OpKind.RMW, 1, None),
    (OpKind.UNLOCK, 2, None), (OpKind.CHAN_SEND, 3, 0),
)


@pytest.mark.parametrize("engine", available_backends())
def test_observe_isolated(benchmark, engine):
    """observe() alone — THE replay hot path — per backend, with the
    executor, scheduler and program machinery stripped away."""
    nthreads = 3

    def run():
        eng = create_clock_engine(engine)
        eng.reserve(nthreads)
        observe = eng.observe
        for i in range(600):
            kind, oid, key = _OBSERVE_MIX[i % len(_OBSERVE_MIX)]
            observe(i % nthreads, int(kind), oid, key)
        return eng.hbr_fingerprint()

    benchmark(run)


@pytest.mark.parametrize("engine", available_backends())
def test_engine_fork(benchmark, engine):
    """Engine fork — paid once per snapshot restore — per backend."""
    eng = create_clock_engine(engine)
    eng.reserve(4)
    for i in range(40):
        kind, oid, key = _OBSERVE_MIX[i % len(_OBSERVE_MIX)]
        eng.observe(i % 4, int(kind), oid, key)
    benchmark(lambda: [eng.fork() for _ in range(50)])


@pytest.mark.parametrize("engine", available_backends())
def test_executor_step_isolated(benchmark, engine):
    """The fast-replay executor step loop per backend."""
    program = disjoint_coarse(3, 3)

    def run_steps():
        ex = Executor(program, fast_replay=True, engine=engine)
        n = 0
        while not ex.is_done():
            ex.step(ex.enabled()[0])
            n += 1
        return n

    n = benchmark(run_steps)
    assert n > 0


def test_executor_throughput(benchmark):
    """Events per second through the full executor + dual clock engine."""
    program = disjoint_coarse(4, 4)

    def run_once():
        return execute(program)

    result = benchmark(run_once)
    assert result.ok


def test_executor_stepping_overhead(benchmark):
    """Step-by-step driving (the explorer-facing interface)."""
    program = disjoint_coarse(3, 3)

    def run_steps():
        ex = Executor(program)
        n = 0
        while not ex.is_done():
            ex.step(ex.enabled()[0])
            n += 1
        return n

    n = benchmark(run_steps)
    assert n > 0


def test_program_instantiation(benchmark):
    """Cost of rebuilding a program instance (paid once per schedule)."""
    program = disjoint_coarse(4, 2)
    benchmark(lambda: Executor(program))
