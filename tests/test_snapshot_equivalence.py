"""Snapshot/fork equivalence: resuming an executor from a
copy-on-write snapshot must be *observably identical* to replaying the
same prefix from scratch — same enabled sets, pending-info lookahead,
fingerprints, state hashes, schedules and errors.

The property is exercised three ways:

* a hypothesis property over random schedules and random cut points of
  programs that together use **every** sync primitive (mutex, condvar
  wait/notify, semaphore, barrier, rwlock, atomic RMW, plain
  vars/arrays/dicts, await_value, spawn/join, yield, guest assertions,
  deadlocks);
* explorer-level equivalence: kernel strategies and DPOR must produce
  byte-identical statistics with branch-point capture on and off,
  while the live snapshots never outnumber the depths of the search
  path (one per depth, plus the initial state);
* multi-restore: one snapshot restored several times yields
  independent, identical executors, and forking never perturbs the
  original — on any executor, since every one records its tapes.
"""

from __future__ import annotations

import gc
import random

import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from repro import Program
from repro.core.events import OpKind
from repro.explore import ExplorationLimits
from repro.explore.base import DEFAULT_SNAPSHOT_BUDGET_BYTES
from repro.explore.controller import make_explorer
from repro.runtime.executor import Executor
from repro.runtime.snapshot import ExecutorSnapshot
from repro.suite import REGISTRY
from repro.suite.shim_twins import make_twins


# ---------------------------------------------------------------------------
# Programs spanning the full primitive vocabulary
def _omnibus() -> Program:
    """Barrier + semaphore + condvar + rwlock + atomic + array/dict +
    await_value in one program; three threads."""

    def build(p):
        m = p.mutex("m")
        cv = p.condition("cv")
        sem = p.semaphore("sem", 1)
        bar = p.barrier("bar", 2)
        rw = p.rwlock("rw")
        counter = p.atomic("counter", 0)
        flag = p.var("flag", 0)
        cells = p.array("cells", [0, 0])
        table = p.dict("table", {0: 0})

        def t0(api):
            yield api.fetch_add(counter, 2)
            yield api.barrier_wait(bar)
            yield api.rlock(rw)
            v = yield api.read(cells, key=0)
            yield api.runlock(rw)
            yield api.lock(m)
            yield api.write(flag, 1)
            yield api.notify(cv)
            yield api.unlock(m)
            yield api.write(table, v + 1, key=0)

        def t1(api):
            yield api.sem_acquire(sem)
            yield api.wlock(rw)
            yield api.write(cells, 5, key=0)
            yield api.wunlock(rw)
            yield api.sem_release(sem)
            yield api.barrier_wait(bar)
            ok = yield api.cas(counter, 2, 9)
            yield api.write(cells, 1 if ok else 2, key=1)

        def t2(api):
            yield api.lock(m)
            while True:
                v = yield api.read(flag)
                if v:
                    break
                yield api.wait(cv, m)
            yield api.unlock(m)
            yield api.await_value(counter, lambda x: x >= 2)
            yield api.sched_yield()
            yield api.write(table, 7, key=1)

        p.thread(t0)
        p.thread(t1)
        p.thread(t2)

    return Program("snapshot_omnibus", build)


def _spawner() -> Program:
    """Nested dynamic spawn: a child spawns a grandchild."""

    def build(p):
        out = p.array("out", [0, 0, 0])
        total = p.atomic("total", 0)

        def grandchild(api, me):
            yield api.write(out, me * 10, key=2)
            yield api.fetch_add(total, 1)

        def child(api, me):
            yield api.write(out, me, key=1)
            gtid = yield api.spawn(grandchild, me + 1)
            yield api.join(gtid)
            yield api.fetch_add(total, 1)

        def main(api):
            tid = yield api.spawn(child, 1)
            yield api.write(out, 99, key=0)
            yield api.join(tid)
            yield api.fetch_add(total, 1)

        p.thread(main)

    return Program("snapshot_spawner", build)


def _crashy() -> Program:
    """One thread dies on a guest assertion under some interleavings."""

    def build(p):
        x = p.var("x", 0)

        def writer(api):
            yield api.write(x, 1)

        def asserter(api):
            v = yield api.read(x)
            api.guest_assert(v == 0, "saw the write")
            yield api.write(x, v + 10)

        p.thread(writer)
        p.thread(asserter)

    return Program("snapshot_crashy", build)


def _deadlocky() -> Program:
    def build(p):
        a = p.mutex("a")
        b = p.mutex("b")

        def t0(api):
            yield api.lock(a)
            yield api.lock(b)
            yield api.unlock(b)
            yield api.unlock(a)

        def t1(api):
            yield api.lock(b)
            yield api.lock(a)
            yield api.unlock(a)
            yield api.unlock(b)

        p.thread(t0)
        p.thread(t1)

    return Program("snapshot_deadlocky", build)


PROGRAMS = {
    "omnibus": _omnibus(),
    "spawner": _spawner(),
    "crashy": _crashy(),
    "deadlocky": _deadlocky(),
    "bounded_buffer": REGISTRY[24].program,
    "spawn_join": REGISTRY[77].program,
    # the message-passing primitives: channel buffer/closed COW, future
    # COW, and — via the close race — snapshots of threads crashed by a
    # runtime-injected ChannelError (the throw_exc restore path)
    "chan_pipeline": REGISTRY[80].program,
    "chan_close_race": REGISTRY[87].program,
    "future_dag": REGISTRY[86].program,
    "rendezvous": REGISTRY[88].program,
}


def _random_schedule(program: Program, seed: int):
    ex = Executor(program)
    rng = random.Random(seed)
    while not ex.is_done():
        ex.step(rng.choice(ex.enabled()))
    return ex.finish()


def _pending_view(ex: Executor):
    return [
        (i.tid, i.kind, i.oid, i.key, i.enabled, i.released_mutex_oid)
        for i in ex.all_pending_infos()
    ]


def _assert_runs_identical(a: Executor, b: Executor, tail):
    """Drive both executors down ``tail`` asserting every observable
    agrees at every scheduling point."""
    for tid in tail:
        assert a.enabled() == b.enabled()
        assert a.runnable_unfinished() == b.runnable_unfinished()
        assert _pending_view(a) == _pending_view(b)
        a.step(tid)
        b.step(tid)
    assert a.is_done() == b.is_done()
    ra, rb = a.finish(), b.finish()
    assert ra.schedule == rb.schedule
    assert ra.hbr_fp == rb.hbr_fp
    assert ra.lazy_fp == rb.lazy_fp
    assert ra.state_hash == rb.state_hash
    assert ra.truncated == rb.truncated
    assert ra.num_events == rb.num_events
    assert type(ra.error).__name__ == type(rb.error).__name__
    assert str(ra.error) == str(rb.error)
    return ra, rb


@pytest.mark.parametrize("name", sorted(PROGRAMS))
@given(seed=st.integers(0, 10**9), cut_frac=st.floats(0.0, 1.0))
@settings(max_examples=25, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
def test_fork_resume_identical_to_fresh_replay(name, seed, cut_frac):
    program = PROGRAMS[name]
    full = _random_schedule(program, seed)
    sched = full.schedule
    cut = int(cut_frac * len(sched))

    fresh = Executor(program)
    fresh.replay_prefix(sched[:cut])
    snap = fresh.snapshot()
    resumed = Executor.from_snapshot(snap)

    ra, rb = _assert_runs_identical(fresh, resumed, sched[cut:])
    assert ra.hbr_fp == full.hbr_fp
    assert ra.state_hash == full.state_hash


@pytest.mark.parametrize("name", sorted(PROGRAMS))
def test_multi_restore_and_fork_independence(name):
    program = PROGRAMS[name]
    full = _random_schedule(program, 1234)
    sched = full.schedule
    cut = len(sched) // 2

    base = Executor(program)
    base.replay_prefix(sched[:cut])
    snap = base.snapshot()

    # one snapshot, three independent restores (one via fork of a fork)
    r1 = Executor.from_snapshot(snap)
    r2 = Executor.from_snapshot(snap)
    r3 = r1.fork()
    _assert_runs_identical(r1, r2, sched[cut:])
    # forking r1 before it ran must not have perturbed it, and the fork
    # itself continues identically
    r4 = Executor(program)
    r4.replay_prefix(sched[:cut])
    _assert_runs_identical(r3, r4, sched[cut:])

    # the snapshot source keeps running unperturbed
    for tid in sched[cut:]:
        base.step(tid)
    assert base.finish().state_hash == full.state_hash


def test_spawn_keeps_snapshots_off_recycled_instances():
    """An executed SPAWN registers the child's handle, so the executor
    that ran it hands back no instance, and a snapshot taken after a
    SPAWN is restored onto a fresh instance even when a spare is
    offered.  The op-trie walk runs only on recycled instances, so it
    never meets a snapshot with an executed SPAWN: dynamically spawned
    threads are always rebuilt by fast-forward."""
    program = _spawner()
    ex = Executor(program)
    pre = ex.snapshot()
    ex.step(0)  # main spawns the child
    post = ex.snapshot()
    assert len(post.thread_records) == 2
    assert ex.release_instance() is None

    # a spawn-free executor's spare serves a spawn-free snapshot...
    spare = Executor.from_snapshot(pre).release_instance()
    assert spare is not None
    assert Executor.from_snapshot(pre, reuse=spare).instance is spare[1]
    # ...but not a post-spawn one
    spare = Executor.from_snapshot(pre).release_instance()
    restored = Executor.from_snapshot(post, reuse=spare)
    assert restored.instance is not spare[1]

    fresh = Executor(program)
    fresh.replay_prefix(post.schedule)
    while not restored.is_done():
        assert restored.enabled() == fresh.enabled()
        tid = restored.enabled()[0]
        restored.step(tid)
        fresh.step(tid)
    _assert_runs_identical(restored, fresh, tail=[])


def test_trace_mode_snapshot_preserves_events():
    # DPOR runs executors with materialised traces; a resumed executor
    # must carry the full stamped event list
    program = PROGRAMS["omnibus"]
    full = _random_schedule(program, 99)
    sched = full.schedule
    cut = len(sched) // 2
    a = Executor(program, fast_replay=False)
    a.replay_prefix(sched[:cut])
    b = Executor.from_snapshot(a.snapshot())
    for tid in sched[cut:]:
        a.step(tid)
        b.step(tid)
    ta, tb = a.finish().events, b.finish().events
    assert len(ta) == len(tb) == len(sched)
    for ea, eb in zip(ta, tb):
        assert (ea.index, ea.tid, ea.tindex, ea.kind, ea.oid, ea.key,
                ea.clock, ea.lazy_clock, ea.released_mutex_oid) == \
               (eb.index, eb.tid, eb.tindex, eb.kind, eb.oid, eb.key,
                eb.clock, eb.lazy_clock, eb.released_mutex_oid)


#: PROGRAMS plus a suite program and a shim program (whose guests keep
#: host-side state, so restores re-feed every thread's tape)
FORK_PROGRAMS = {
    **PROGRAMS,
    "racy_counter_t3_k1": REGISTRY[4].program,
    "shim_locked_counter": next(
        pair.shim for pair in make_twins() if pair.name == "locked_counter"
    ),
}


@pytest.mark.parametrize("name", sorted(FORK_PROGRAMS))
def test_default_executor_forks(name):
    """Every executor records its send tapes, so one built with no
    flags snapshots and forks mid-schedule; the fork continues exactly
    like a fresh executor replaying the same schedule."""
    program = FORK_PROGRAMS[name]
    sched = _random_schedule(program, 7).schedule
    cut = len(sched) // 2
    ex = Executor(program)
    ex.replay_prefix(sched[:cut])
    forked = ex.fork()
    fresh = Executor(program)
    fresh.replay_prefix(sched[:cut])
    for tid in sched[cut:]:
        assert forked.enabled() == fresh.enabled()
        assert (forked.engine.hbr_fingerprint(),
                forked.engine.lazy_fingerprint()) == \
               (fresh.engine.hbr_fingerprint(),
                fresh.engine.lazy_fingerprint())
        forked.step(tid)
        fresh.step(tid)
    rf, rr = forked.finish(), fresh.finish()
    assert (rf.hbr_fp, rf.lazy_fp, rf.state_hash) == \
           (rr.hbr_fp, rr.lazy_fp, rr.state_hash)


# ---------------------------------------------------------------------------
# Explorer-level equivalence across snapshot budgets
def _stats_dict(explorer_name, bench_id, budget):
    limits = ExplorationLimits(max_schedules=500)
    limits.snapshot_budget_bytes = budget
    explorer = make_explorer(explorer_name, REGISTRY[bench_id].program,
                             limits)
    stats = explorer.run().to_dict()
    stats.pop("elapsed")
    return stats, explorer


@pytest.mark.parametrize("explorer_name", [
    "dfs", "hbr-caching", "lazy-hbr-caching", "preempt-bounded",
    "iterative-cb", "delay-bounded", "dpor", "lazy-dpor",
])
@pytest.mark.parametrize("bench_id", [4, 24, 36, 47])
def test_explorer_budget_invariance(explorer_name, bench_id):
    """Statistics are byte-identical whether branch-point capture is
    off or on."""
    base, _ = _stats_dict(explorer_name, bench_id, 0)
    other, _ = _stats_dict(explorer_name, bench_id,
                           DEFAULT_SNAPSHOT_BUDGET_BYTES)
    assert other == base, (explorer_name, bench_id)


def test_snapshot_budget_zero_disables_tree():
    limits = ExplorationLimits(max_schedules=50)
    limits.snapshot_budget_bytes = 0
    explorer = make_explorer("dfs", REGISTRY[4].program, limits)
    explorer.run()
    assert explorer.snapshot_tree is None


@pytest.mark.parametrize("explorer_name", ["dfs", "dpor"])
def test_negative_snapshot_budget_rejected(explorer_name):
    with pytest.raises(ValueError, match="snapshot budget"):
        make_explorer(explorer_name, REGISTRY[4].program,
                      ExplorationLimits(snapshot_budget_bytes=-1))


@pytest.mark.parametrize("explorer_name", [
    "dfs", "hbr-caching", "iterative-cb", "dpor",
])
@pytest.mark.parametrize("bench_id", [4, 24])
def test_live_snapshots_bounded_by_search_depth(explorer_name, bench_id):
    """The structural memory bound: an exploration holds at most one
    snapshot per depth of the deepest schedule so far, plus the
    initial state.  Live ``ExecutorSnapshot`` objects of the program
    are counted every few schedule boundaries."""
    program = REGISTRY[bench_id].program
    explorer = make_explorer(explorer_name, program,
                             ExplorationLimits(max_schedules=120))
    deepest = 0
    retire = explorer._retire

    def tracking_retire(ex, at=None):
        nonlocal deepest
        deepest = max(deepest, len(ex.schedule))
        retire(ex, at)

    samples = []

    def sample(exp):
        if exp.stats.num_schedules % 3 == 0:
            live = sum(1 for o in gc.get_objects()
                       if type(o) is ExecutorSnapshot
                       and o.program is program)
            samples.append((live, deepest))

    explorer._retire = tracking_retire
    explorer.set_control(sample)
    gc.collect()  # earlier tests' garbage holds snapshots of program too
    explorer.run()
    assert len(samples) >= 3, samples
    assert max(live for live, _ in samples) > 1, samples
    for live, depth in samples:
        assert live <= depth + 1, (explorer_name, bench_id, samples)


def test_snapshot_of_thread_crashed_by_injected_error():
    """A snapshot taken between a runtime-injected crash (send on a
    closed channel -> ChannelError thrown into the guest) and the
    crashed thread's EXIT must restore the pending EXIT from the
    recorded error — the dead generator cannot re-raise it."""
    program = REGISTRY[87].program  # chan_close_race_eager
    # schedule: producer send(1); controller recv, close; producer
    # send(2) -> crash injected, EXIT pending
    ex = Executor(program)
    for tid in (0, 1, 1, 0):
        ex.step(tid)
    t0 = ex.threads[0]
    assert t0.throw_exc is not None
    assert t0.pending.kind is OpKind.EXIT
    snap = ex.snapshot()
    for a, b in ((ex, Executor.from_snapshot(snap)),
                 (Executor.from_snapshot(snap),
                  Executor.from_snapshot(snap))):
        # drive both to completion step-for-step (first-enabled)
        while not a.is_done():
            assert a.enabled() == b.enabled()
            tid = a.enabled()[0]
            a.step(tid)
            b.step(tid)
        ra, rb = _assert_runs_identical(a, b, tail=[])
        assert type(ra.error).__name__ == "ChannelError"
