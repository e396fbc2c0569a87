"""Invariants of the executor's incremental scheduling state.

The memoised enabled list, the incrementally maintained runnable set,
the barrier-pending counter and the conditional cache invalidation
(non-disturbing READ/WRITE/YIELD/JOIN steps patch instead of rebuild)
must always agree with a from-scratch recomputation.  These tests walk
diverse suite programs under seeded random schedules and cross-check
after every single step.

Each walk runs two ways: ``ref`` steps one fresh executor throughout,
and ``fast`` moves the walk every few steps onto an executor restored
from a snapshot of the current one, recycling its instance the way an
explorer's fast replay does (a restore rebuilds the scheduling state
from the snapshot rather than by stepping).
"""

import random

import pytest

from repro.runtime.executor import Executor
from repro.suite import REGISTRY

#: programs covering every enabledness mechanism: plain races, coarse
#: locks, condvars, philosophers (deadlock), barriers, semaphores,
#: rwlocks, ticket locks (await_value predicates), spawn/join
PROGRAMS = (4, 13, 24, 32, 38, 40, 66, 69, 77)


#: steps between two restores in ``fast`` walks
RESTORE_EVERY = 5


def _restore(ex):
    snap = ex.snapshot()
    return Executor.from_snapshot(snap, reuse=ex.release_instance())


def _walk_and_check(program, seed, fast):
    rng = random.Random(seed)
    ex = Executor(program, max_events=600)
    steps = 0
    while not ex.is_done():
        if fast and steps % RESTORE_EVERY == RESTORE_EVERY - 1:
            ex = _restore(ex)
        enabled = ex.enabled()
        assert enabled == sorted(ex._recomputed_enabled()), (
            f"{program.name}: memoised enabled diverged after "
            f"{steps} steps"
        )
        assert enabled, "is_done() said runnable but nothing enabled"
        ex.step(enabled[rng.randrange(len(enabled))])
        steps += 1
    # terminal state agreement too (deadlocks show up here)
    assert sorted(ex._recomputed_enabled()) == ex.enabled() or \
        ex.error is not None or ex.truncated
    return ex


@pytest.mark.parametrize("bid", PROGRAMS)
@pytest.mark.parametrize("fast", [False, True], ids=["ref", "fast"])
def test_enabled_matches_recomputation(bid, fast):
    program = REGISTRY[bid].program
    for seed in range(6):
        _walk_and_check(program, seed, fast)


def test_step_rejects_disabled_thread():
    ex = Executor(REGISTRY[13].program)  # coarse lock program
    enabled = ex.enabled()
    # grab the lock with the first thread; the others' LOCK is disabled
    ex.step(enabled[0])
    from repro.errors import SchedulerError
    blocked = [t for t in ex.enabled() if t != enabled[0]]
    # after one step the lock is held; find a thread whose pending LOCK
    # is now disabled and confirm step() refuses it
    disabled = set(range(len(ex.threads))) - set(ex.enabled())
    for tid in disabled:
        if ex.threads[tid].status == 0 and ex.threads[tid].pending:
            with pytest.raises(SchedulerError):
                ex.step(tid)
            return
    assert blocked is not None  # lock program always blocks someone


def test_num_events_tracks_trace_in_reference_mode():
    # the trace is the caller's: each step returns its event, whose
    # index is its schedule position, and num_events counts them
    ex = Executor(REGISTRY[4].program)
    events = []
    while not ex.is_done():
        events.append(ex.step(ex.enabled()[0]))
    assert [e.index for e in events] == list(range(ex.num_events))
    assert [e.tid for e in events] == ex.schedule
    assert ex.num_events == len(events) > 0


def test_num_events_counts_without_trace_in_fast_mode():
    # neither the executor nor its snapshot keeps a trace, yet a
    # restored executor counts the events before the cut, and the
    # events it steps continue their indices
    ex = Executor(REGISTRY[4].program)
    while not ex.is_done():
        ex.step(ex.enabled()[0])
    schedule = ex.schedule
    cut = len(schedule) // 2
    a = Executor(REGISTRY[4].program)
    a.replay_prefix(schedule[:cut])
    snap = a.snapshot()
    assert not hasattr(a, "trace") and not hasattr(snap, "trace")
    restored = _restore(a)
    assert restored.num_events == cut > 0
    events = [restored.step(tid) for tid in schedule[cut:]]
    assert [e.index for e in events] == list(range(cut, len(schedule)))
    assert restored.num_events == len(schedule)
