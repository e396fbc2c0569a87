"""Golden equivalence: DPOR and lazy-DPOR against frozen references.

The live explorers analyse races incrementally (only what changed since
the previous state, with an early exit per location) and lazy-DPOR
runs DPOR's own loop through a post-step hook.  The references in
``reference_explorers.py`` are the full-scan analysis and lazy-DPOR's
former copy of the loop.  Both must produce byte-identical

* terminal-schedule sequences (the exact order of terminal runs),
* statistics: schedules, events, states, HBRs, lazy HBRs, pruned
  runs, the fingerprint and state-hash sets, and error findings,

for ``dpor``, ``dpor-nosleep`` and ``lazy-dpor``, on every small suite
program with branch-point capture on and off, and on generated
programs.
CI runs this module a second time under ``REPRO_OPCACHE=0``: the delta
keys on pending-op identity, and the op-trie and generator paths hand
out op objects differently.
"""

from __future__ import annotations

import contextlib

import pytest
from hypothesis import example, given

from repro import Program
from repro.core.events import Op, OpKind
from repro.explore import DPORExplorer, ExplorationLimits, LazyDPORExplorer
from repro.explore.controller import make_explorer
from repro.runtime.executor import Executor
from repro.suite import REGISTRY, small_benchmarks

from reference_explorers import (
    ReferenceDPOR,
    ReferenceLazyDPOR,
    TerminalLogMixin,
)
from reference_replay import capture_off
from test_random_program_soundness import (
    TIMED_SPEC,
    build_program,
    program_spec,
    soundness_settings,
)


class LoggedDPOR(TerminalLogMixin, DPORExplorer):
    pass


class LoggedLazyDPOR(TerminalLogMixin, LazyDPORExplorer):
    pass


STRATEGIES = [
    ("dpor",
     lambda p, lim: LoggedDPOR(p, lim),
     lambda p, lim: ReferenceDPOR(p, lim)),
    ("dpor-nosleep",
     lambda p, lim: LoggedDPOR(p, lim, sleep_sets=False),
     lambda p, lim: ReferenceDPOR(p, lim, sleep_sets=False)),
    ("lazy-dpor",
     lambda p, lim: LoggedLazyDPOR(p, lim),
     lambda p, lim: ReferenceLazyDPOR(p, lim)),
]
STRATEGY_IDS = [s[0] for s in STRATEGIES]


def _assert_identical(program, make_new, make_ref, limits):
    new = make_new(program, limits)
    new_stats = new.run()
    ref = make_ref(program, limits)
    ref_stats = ref.run()
    name = program.name
    assert new.schedule_log == ref.schedule_log, (
        f"terminal schedule sequences diverge on {name}"
    )
    new_dict, ref_dict = new_stats.to_dict(), ref_stats.to_dict()
    new_dict.pop("elapsed")
    ref_dict.pop("elapsed")
    assert new_dict == ref_dict, name
    return new_stats


@pytest.mark.parametrize("capture", [True, False],
                         ids=["snapshots-on", "snapshots-off"])
@pytest.mark.parametrize("label,make_new,make_ref", STRATEGIES,
                         ids=STRATEGY_IDS)
def test_small_suite_identical(label, make_new, make_ref, capture):
    limits = ExplorationLimits()
    with contextlib.nullcontext() if capture else capture_off():
        for bench in small_benchmarks():
            stats = _assert_identical(bench.program, make_new, make_ref,
                                      limits)
            assert stats.exhausted, bench.program.name


@pytest.mark.parametrize("label,make_new,make_ref", STRATEGIES,
                         ids=STRATEGY_IDS)
def test_budget_cutoff_identical(label, make_new, make_ref):
    # a binding budget cuts the identical sequence at the identical
    # point — racy_counter(2,2) takes more DPOR schedules than this
    stats = _assert_identical(
        REGISTRY[3].program, make_new, make_ref,
        ExplorationLimits(max_schedules=17),
    )
    assert stats.limit_hit


@soundness_settings
@given(program_spec)
@example(spec=TIMED_SPEC)
def test_generated_programs_identical(spec):
    program = build_program(spec)
    limits = ExplorationLimits(max_schedules=60_000)
    for _label, make_new, make_ref in STRATEGIES:
        _assert_identical(program, make_new, make_ref, limits)


def _shared_op_program():
    def build(p):
        x = p.var("x", 0)
        # one Op object per instance, yielded by both threads: the
        # only way two pending ops can share a PendingInfo record
        bump = Op(OpKind.RMW, x, None, lambda v: (v + 1, v))

        def body(api, out):
            seen = yield bump
            yield api.write(out, seen)
            yield bump

        p.thread(body, p.var("a", -1))
        p.thread(body, p.var("b", -1))

    return Program("shared_op", build)


def test_op_shared_by_two_threads():
    program = _shared_op_program()
    ex = Executor(program)
    first, second = (t.pending for t in ex.threads)
    assert first is second
    assert [info.tid for info in ex.all_pending_infos()] == [0, 1]
    assert [ex.pending_info(tid).tid for tid in (1, 0)] == [1, 0]
    dfs_states = make_explorer("dfs", program).run().state_hashes
    assert len(dfs_states) > 2
    for label, make_new, make_ref in STRATEGIES:
        stats = _assert_identical(program, make_new, make_ref,
                                  ExplorationLimits())
        assert stats.exhausted, label
        assert stats.state_hashes == dfs_states, label


def _clock_only_program():
    def build(p):
        m = p.mutex("m")
        x = p.var("x", 0)
        y = p.var("y", 0)

        def locker(api):
            if (yield api.lock(m, timeout=0.5)) is not False:
                yield api.write(x, 1)
                yield api.unlock(m)

        def sleeper(api):
            yield api.sleep(0.1)
            yield api.write(y, 2)

        p.thread(locker)
        p.thread(sleeper)

    return Program("clock_only", build)


def test_timed_op_is_tested_after_its_step():
    # the two threads share only the virtual clock, which a timed op's
    # record names as its released oid (it may fire a TIME_FIRE) and
    # its LOCK event does not: tested ahead of the step against the
    # pending SLEEP, the acquisition would register a race that no
    # event has, and DPOR would run a second schedule
    program = _clock_only_program()
    for label, make_new, make_ref in STRATEGIES:
        stats = _assert_identical(program, make_new, make_ref,
                                  ExplorationLimits())
        assert stats.exhausted, label
        assert stats.num_schedules == 1, label
