"""Peek exactness: ``Executor.lookahead(tid)`` gives the fingerprints
``step(tid)`` would leave behind.

HBR caching probes the fingerprint cache on that lookahead before
stepping (see ``repro.explore.kernel``), so a peek that disagreed with
the real step would prune the wrong schedules.  Every check compares
the peek's ``(hbr_fingerprint, lazy_fingerprint)`` with those of
``ex.fork()`` after ``step(tid)``, at every state of a walk and for
every enabled thread, on

* fixed-seed random walks over every suite program and both halves of
  every shim twin (the shim half's pending ops come from instrumented
  generators, never from the op-trie);
* the hypothesis generators of ``test_random_program_soundness``
  (lock-structured and channel/future programs).

The peek must return None exactly where the event's label is not a
pure function of the pending op: SPAWN, JOIN, timed ops, parked timed
waiters, and a step that would hit ``max_events``.  It must never
disturb the executor it peeks from: fingerprints, every thread clock
of both relations and ``table_stats()`` are unchanged afterwards.
Parametrized over every available clock backend, so a build with the
compiled kernel checks it too.
"""

from __future__ import annotations

import random
from typing import Set

import pytest
from hypothesis import HealthCheck, given, settings

from repro import Program
from repro.core.engines import available_backends
from repro.core.events import OpKind
from repro.runtime.executor import Executor
from repro.suite import REGISTRY
from repro.suite.shim_twins import make_twins

from test_random_program_soundness import (
    build_chan_program,
    build_program,
    chan_program_spec,
    program_spec,
)

BACKENDS = available_backends()
SEEDS = (0, 1, 2)


def _fingerprints(engine):
    return engine.hbr_fingerprint(), engine.lazy_fingerprint()


def _engine_state(ex: Executor):
    """Everything a peek could disturb: both fingerprints, every
    thread clock of both relations, and the table sizes."""
    engine = ex.engine
    clocks = tuple(
        tuple(engine.thread_clock_raw(t.tid, lazy))
        for t in ex.threads
        for lazy in (False, True)
    )
    return _fingerprints(engine), clocks, engine.table_stats()


def _unlabelled(ex: Executor, tid: int):
    """Why ``lookahead(tid)`` must be None, or None when it must not
    be."""
    op = ex.threads[tid].pending
    if op is None:
        return "timed-parked"
    if op.timeout is not None:
        return "timed"
    if op.kind is OpKind.SPAWN:
        return "spawn"
    if op.kind is OpKind.JOIN:
        return "join"
    return None


def _check_state(ex: Executor, seen: Set[str]) -> None:
    """Peek every enabled thread of ``ex`` and compare each peek with
    a real step on a fork; ``seen`` collects the peeked kinds and the
    reasons for None."""
    before = _engine_state(ex)
    schedule = list(ex.schedule)
    for tid in ex.enabled():
        after = ex.lookahead(tid)
        reason = _unlabelled(ex, tid)
        if reason is not None:
            assert after is None, (reason, schedule, tid)
            seen.add(reason)
            continue
        assert after is not None, (schedule, tid)
        child = ex.fork()
        child.step(tid)
        assert _fingerprints(after) == _fingerprints(child.engine), (
            ex.program.name, schedule, tid,
        )
        seen.add(ex.threads[tid].pending.kind.name)
        child.close()
        assert _engine_state(ex) == before, (schedule, tid)
    assert _engine_state(ex) == before
    assert ex.schedule == schedule


def _timed_wait_program() -> Program:
    """A timed condvar wait racing a notify.  No suite program parks a
    timed waiter, so the walks add this one to reach that case."""

    def build(p):
        m = p.mutex("m")
        cv = p.condition("cv")
        flag = p.var("flag", 0)

        def waiter(api):
            yield api.lock(m)
            notified = yield api.wait(cv, m, timeout=0.01)
            yield api.write(flag, 1 if notified else 2)
            yield api.unlock(m)

        def notifier(api):
            yield api.lock(m)
            yield api.notify(cv)
            yield api.unlock(m)

        p.thread(waiter)
        p.thread(notifier)

    return Program("peek_timed_wait", build)


def _walk(program, engine: str, seed: int, seen: Set[str]) -> None:
    rng = random.Random(seed)
    ex = Executor(program, engine=engine)
    while not ex.is_done():
        _check_state(ex, seen)
        ex.step(rng.choice(ex.enabled()))
    ex.close()


@pytest.mark.parametrize("engine", BACKENDS)
def test_peek_matches_step_on_suite(engine):
    seen: Set[str] = set()
    programs = [bench.program for bench in REGISTRY.values()]
    for program in programs + [_timed_wait_program()]:
        for seed in SEEDS:
            _walk(program, engine, seed, seen)
    # the walks reach every kind of None and the labels built from
    # the released-mutex and keyed-location helpers
    assert {"spawn", "join", "timed", "timed-parked"} <= seen, seen
    assert {"WAIT", "LOCK", "READ", "WRITE", "EXIT"} <= seen, seen


@pytest.mark.parametrize("engine", BACKENDS)
def test_peek_matches_step_on_shim_twins(engine):
    seen: Set[str] = set()
    for pair in make_twins():
        for program in (pair.shim, pair.dsl):
            for seed in SEEDS:
                _walk(program, engine, seed, seen)
    assert "WAIT" in seen and "timed" in seen, seen


peek_settings = settings(
    max_examples=25,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)


@pytest.mark.parametrize("engine", BACKENDS)
@peek_settings
@given(spec=program_spec)
def test_peek_matches_step_on_generated_programs(engine, spec):
    seen: Set[str] = set()
    for seed in SEEDS:
        _walk(build_program(spec), engine, seed, seen)


@pytest.mark.parametrize("engine", BACKENDS)
@peek_settings
@given(spec=chan_program_spec)
def test_peek_matches_step_on_generated_channel_programs(engine, spec):
    seen: Set[str] = set()
    for seed in SEEDS:
        _walk(build_chan_program(spec), engine, seed, seen)


@pytest.mark.parametrize("engine", BACKENDS)
def test_peek_is_none_at_max_events(engine):
    program = REGISTRY[1].program
    ex = Executor(program, max_events=2, engine=engine)
    assert all(ex.lookahead(tid) is not None for tid in ex.enabled())
    for _ in range(2):
        ex.step(ex.enabled()[0])
    enabled = ex.enabled()
    assert enabled
    assert all(ex.lookahead(tid) is None for tid in enabled)
