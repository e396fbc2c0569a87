"""Invariants of the executor's scheduling state.

``Executor.enabled`` is one pass over the threads, memoised until a
step changes some thread's enabledness: a non-disturbing
READ/WRITE/YIELD/JOIN step patches the memoised list instead of
dropping it, and the barrier-pending and predicate-watch counters
decide when that is safe.  The list must always agree with
``_recomputed_enabled``, a from-scratch recomputation.  These tests
walk diverse programs under seeded random schedules and cross-check
after every single step.

Each walk runs two ways: ``ref`` steps one fresh executor throughout,
and ``fast`` moves the walk every few steps onto an executor restored
from a snapshot of the current one, recycling its instance the way an
explorer does (a restore rebuilds every thread from the snapshot
rather than by stepping).

``step`` itself refuses a thread that is not enabled, also when it
replays a prefix: a diverged replay raises ``DisabledThreadError``.
"""

import random

import pytest

from repro import Program
from repro.errors import DisabledThreadError
from repro.runtime.executor import Executor
from repro.suite import REGISTRY

#: programs covering every enabledness mechanism: plain races, coarse
#: locks, condvars, philosophers (deadlock), barriers, semaphores,
#: rwlocks, ticket locks (await_value predicates), spawn/join,
#: buffered channels, futures, rendezvous channels and virtual time
#: (timed ops, sleeps, timed channel ops)
PROGRAMS = (4, 13, 24, 32, 38, 40, 66, 69, 77, 81, 86, 88, 89, 93, 96)


#: steps between two restores in ``fast`` walks
RESTORE_EVERY = 5


def _restore(ex):
    snap = ex.snapshot()
    return Executor.from_snapshot(snap, reuse=ex.release_instance())


def _walk_and_check(program, seed, fast, restore_every=RESTORE_EVERY):
    """One seeded random walk, cross-checked at every state.  Returns
    how many checked states had a parked timed waiter enabled."""
    rng = random.Random(seed)
    ex = Executor(program, max_events=600)
    steps = 0
    parked = 0
    while not ex.is_done():
        if fast and steps % restore_every == restore_every - 1:
            ex = _restore(ex)
        enabled = ex.enabled()
        assert enabled == sorted(ex._recomputed_enabled()), (
            f"{program.name}: memoised enabled diverged after "
            f"{steps} steps"
        )
        assert enabled, "is_done() said runnable but nothing enabled"
        parked += any(ex.threads[tid].pending is None for tid in enabled)
        ex.step(enabled[rng.randrange(len(enabled))])
        steps += 1
    # terminal state agreement too (deadlocks show up here)
    assert sorted(ex._recomputed_enabled()) == ex.enabled() or \
        ex.error is not None or ex.truncated
    return parked


@pytest.mark.parametrize("bid", PROGRAMS)
@pytest.mark.parametrize("fast", [False, True], ids=["ref", "fast"])
def test_enabled_matches_recomputation(bid, fast):
    program = REGISTRY[bid].program
    for seed in range(6):
        _walk_and_check(program, seed, fast)


def _timed_wait_program() -> Program:
    """A timed condvar wait racing a notify, beside an untimed waiter:
    no suite program parks a timed waiter, which is enabled while
    parked (its step is the timeout firing)."""

    def build(p):
        m = p.mutex("m")
        cv = p.condition("cv")
        flag = p.var("flag", 0)

        def timed_waiter(api):
            yield api.lock(m)
            notified = yield api.wait(cv, m, timeout=0.01)
            yield api.write(flag, 1 if notified else 2)
            yield api.unlock(m)

        def waiter(api):
            yield api.lock(m)
            yield api.wait(cv, m, timeout=None)
            yield api.unlock(m)

        def notifier(api):
            yield api.lock(m)
            yield api.notify_all(cv)
            yield api.unlock(m)

        p.thread(timed_waiter)
        p.thread(waiter)
        p.thread(notifier)

    return Program("timed_condvar_wait", build)


@pytest.mark.parametrize("fast", [False, True], ids=["ref", "fast"])
def test_enabled_matches_recomputation_with_timed_waiter(fast):
    # restoring before every step in ``fast`` walks rebuilds a parked
    # timed waiter from its snapshot record each time it is enabled
    program = _timed_wait_program()
    parked = sum(_walk_and_check(program, seed, fast, restore_every=1)
                 for seed in range(12))
    assert parked > 0


@pytest.mark.parametrize("bid, prefix, kind", [
    (77, [0, 0], "JOIN"),          # join of a running thread
    (66, [0, 0], "BARRIER_WAIT"),  # barrier wait not yet admitted
    (88, [], "CHAN_RECV"),         # rendezvous recv with no sender
], ids=["join", "barrier", "rendezvous-recv"])
@pytest.mark.parametrize("memo", [False, True], ids=["cold", "memoised"])
def test_replay_prefix_rejects_disabled_choice(bid, prefix, kind, memo):
    program = REGISTRY[bid].program
    probe = Executor(program)
    probe.replay_prefix(prefix)
    assert probe.threads[0].pending.kind.name == kind
    assert 0 not in probe.enabled() and probe.enabled()
    ex = Executor(program)
    ex.replay_prefix(prefix)
    if memo:
        ex.enabled()
    with pytest.raises(DisabledThreadError) as info:
        ex.replay_prefix([0])
    assert info.value.tid == 0 and info.value.reason
    assert ex.schedule == prefix  # nothing executed


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
