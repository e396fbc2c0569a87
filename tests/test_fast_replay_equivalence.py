"""Equivalence of the fast-replay executor path with the reference path.

The tentpole guarantee of the hot-path overhaul: ``fast_replay=True``
(no Event materialisation, no trace list, no ``describe_state``) must
produce *identical* fingerprints, state hashes, schedules and error
outcomes to the default executor, for every program in the suite.
These tests enforce that at both the executor level (fixed and seeded
random schedules) and the explorer level (whole explorations under
``dfs`` and ``dpor`` with small limits, compared field by field).
"""

import pytest

from repro.errors import SchedulerError
from repro.explore import ExplorationLimits
from repro.explore.controller import make_explorer
from repro.runtime.executor import Executor
from repro.runtime.schedule import RandomScheduler
from repro.suite import REGISTRY, all_benchmarks

ALL_IDS = [b.bench_id for b in all_benchmarks()]

LIMITS = ExplorationLimits(max_schedules=25, max_events_per_schedule=400)


def _run_once(program, fast: bool, seed):
    """One complete run under a seeded random scheduler (or first-enabled
    for seed None), with divergence-free stepping."""
    ex = Executor(program, max_events=400, fast_replay=fast)
    chooser = RandomScheduler(seed) if seed is not None else None
    while not ex.is_done():
        enabled = ex.enabled()
        tid = chooser.choose(ex) if chooser else enabled[0]
        ex.step(tid)
    return ex.finish()


def _result_fields(r):
    return (
        r.hbr_fp,
        r.lazy_fp,
        r.state_hash,
        tuple(r.schedule),
        type(r.error).__name__ if r.error else None,
        r.truncated,
        r.num_events,
    )


@pytest.mark.parametrize("bid", ALL_IDS)
def test_executor_fast_vs_reference_schedules(bid):
    """Identical TraceResult fields on first-enabled plus seeded random
    schedules, for every suite program."""
    program = REGISTRY[bid].program
    for seed in (None, 1, 2):
        try:
            slow = _run_once(program, fast=False, seed=seed)
            fast = _run_once(program, fast=True, seed=seed)
        except SchedulerError:
            # max_events truncation raises on the over-budget step for
            # both paths identically; nothing further to compare here
            continue
        assert _result_fields(fast) == _result_fields(slow), (
            f"fast/slow divergence on bench {bid} seed {seed}"
        )
        # fast mode trades the event list and state description away
        assert fast.events == []
        assert fast.final_state == {}
        assert slow.num_events == len(slow.events)


def _explore(program, explorer_name, fast: bool):
    """One exploration with the explorer's replay mode set to ``fast``."""
    explorer = make_explorer(explorer_name, program, LIMITS)
    explorer.fast_replay = fast
    stats = explorer.run()
    stats.verify_inequality()
    return stats


def _stats_fields(stats):
    return (
        stats.num_schedules,
        stats.num_complete,
        stats.num_pruned,
        stats.num_hbrs,
        stats.num_lazy_hbrs,
        stats.num_states,
        stats.num_events,
        sorted((e.kind, e.message, tuple(e.schedule)) for e in stats.errors),
        stats.limit_hit,
        stats.exhausted,
    )


@pytest.mark.parametrize("bid", ALL_IDS)
def test_dfs_exploration_fast_vs_reference(bid):
    """Whole-exploration equivalence: DFS with fast executors produces
    bit-identical statistics to DFS with reference executors."""
    program = REGISTRY[bid].program
    fast = _explore(program, "dfs", fast=True)
    slow = _explore(program, "dfs", fast=False)
    assert _stats_fields(fast) == _stats_fields(slow)


@pytest.mark.parametrize("bid", ALL_IDS[::6])
def test_dpor_ignores_fast_flag(bid):
    """DPOR hard-requires materialised traces; ``fast_replay = True``
    must be a harmless no-op for it, not a corruption."""
    program = REGISTRY[bid].program
    a = _explore(program, "dpor", fast=True)
    b = _explore(program, "dpor", fast=False)
    assert _stats_fields(a) == _stats_fields(b)
