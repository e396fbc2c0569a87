"""Equivalence of fast replay with reference replay.

There is one executor mode: ``Executor.step`` returns the stamped
event and the executor keeps no trace.  What stays fast is how a run
is reached.  An explorer restores the deepest branch-point snapshot on
its spine and steps only the rest of the schedule; the reference
replays every schedule from the initial state, with branch-point
capture off (``reference_replay.capture_off``).  On the
executor level, the reference is a scheduler-driven step loop that
keeps the events its steps return, and the replay is ``execute`` of
the schedule that loop recorded.

Both must give identical fingerprints, state hashes, schedules,
events and error outcomes, for every program in the suite.  These
tests check that at the executor level (first-enabled and seeded
random schedules) and at the explorer level (whole explorations under
``dfs`` and ``dpor`` with small limits, compared field by field).
"""

import pytest

from repro.errors import SchedulerError
from repro.explore import ExplorationLimits
from repro.explore.controller import make_explorer
from repro.runtime.executor import Executor
from repro.runtime.schedule import RandomScheduler, execute
from repro.runtime.state import describe_state
from repro.suite import REGISTRY, all_benchmarks

from reference_replay import capture_off

ALL_IDS = [b.bench_id for b in all_benchmarks()]

LIMITS = ExplorationLimits(max_schedules=25, max_events_per_schedule=400)


def _run_once(program, seed):
    """One complete run under a seeded random scheduler (or first-enabled
    for seed None), with divergence-free stepping; returns the executor,
    its result and the events its steps returned."""
    ex = Executor(program, max_events=400)
    chooser = RandomScheduler(seed) if seed is not None else None
    events = []
    while not ex.is_done():
        enabled = ex.enabled()
        tid = chooser.choose(ex) if chooser else enabled[0]
        events.append(ex.step(tid))
    return ex, ex.finish(), events


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


def _event_fields(e):
    return (e.index, e.tid, e.tindex, e.kind, e.oid, e.key, e.clock,
            e.lazy_clock, e.released_mutex_oid)


@pytest.mark.parametrize("bid", ALL_IDS)
def test_executor_fast_vs_reference_schedules(bid):
    """Identical TraceResult fields and events when ``execute`` replays
    the schedule of a first-enabled or seeded random run, for every
    suite program."""
    program = REGISTRY[bid].program
    for seed in (None, 1, 2):
        try:
            ex, slow, events = _run_once(program, seed=seed)
        except SchedulerError:
            # max_events truncation raises on the over-budget step;
            # nothing further to compare here
            continue
        fast = execute(program, schedule=slow.schedule, max_events=400)
        assert _result_fields(fast) == _result_fields(slow), (
            f"replay divergence on bench {bid} seed {seed}"
        )
        assert [_event_fields(e) for e in fast.events] == \
            [_event_fields(e) for e in events]
        assert [e.index for e in events] == list(range(slow.num_events))
        # the executor keeps neither events nor a state description;
        # execute() fills both from its own loop
        assert slow.events == []
        assert slow.final_state == {}
        assert fast.final_state == describe_state(ex.instance.registry)


def _explore(program, explorer_name, fast: bool):
    """One exploration, restoring spine snapshots when ``fast`` and
    replaying every schedule from the initial state otherwise."""
    explorer = make_explorer(explorer_name, program, LIMITS)
    if fast:
        stats = explorer.run()
    else:
        with capture_off():
            stats = explorer.run()
        assert explorer.snapshot_tree.hits == 0
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
    """Whole-exploration equivalence: DFS restoring spine snapshots
    produces bit-identical statistics to DFS replaying from scratch."""
    program = REGISTRY[bid].program
    fast = _explore(program, "dfs", fast=True)
    slow = _explore(program, "dfs", fast=False)
    assert _stats_fields(fast) == _stats_fields(slow)


@pytest.mark.parametrize("bid", ALL_IDS[::6])
def test_dpor_ignores_fast_flag(bid):
    """DPOR's race analysis reads the run's events from its own trace,
    which every restore cuts back to the restored depth; restoring
    spine snapshots must leave its results exactly as replaying from
    scratch does."""
    program = REGISTRY[bid].program
    a = _explore(program, "dpor", fast=True)
    b = _explore(program, "dpor", fast=False)
    assert _stats_fields(a) == _stats_fields(b)
