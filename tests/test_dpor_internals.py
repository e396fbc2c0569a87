"""White-box tests for DPOR's race analysis machinery."""

import pytest

from repro import Program
from repro.core.events import OpKind
from repro.explore.dpor import DPORExplorer, _Node
from repro.runtime.executor import Executor
from repro.runtime.trace import PendingInfo


class TestNode:
    def test_initial_state(self):
        n = _Node([0, 1, 2], {1})
        assert n.chosen == -1
        assert n.backtrack == set()
        assert n.done == set()
        assert n.sleep == {1}


class TestRaceAnalysis:
    def _program(self):
        def build(p):
            x = p.var("x", 0)

            def t(api, v):
                yield api.write(x, v)

            p.thread(t, 1)
            p.thread(t, 2)

        return Program("t", build)

    def test_backtrack_point_registered_for_write_write_race(self):
        prog = self._program()
        explorer = DPORExplorer(prog)
        stack = []
        explorer._run_one(stack)
        # T0's write executed first; T1's pending write races with it,
        # so the root node must have gained a backtrack candidate for T1
        assert 1 in stack[0].backtrack or 1 in stack[0].done

    def test_hb_pending_uses_own_component(self):
        prog = self._program()
        ex = Executor(prog)
        e = ex.step(0)  # T0 writes
        cv0 = ex.engine.thread_clock_raw(0)
        cv1 = ex.engine.thread_clock_raw(1)
        assert DPORExplorer._hb_pending(e, cv0)       # own past event
        assert not DPORExplorer._hb_pending(e, cv1)   # unordered for T1

    def test_sleep_set_survival_requires_independence(self):
        # after exploring T0's branch from the root, T0 sleeps in the
        # sibling branch and is woken only by a conflicting event
        prog = self._program()
        explorer = DPORExplorer(prog, sleep_sets=True)
        stats = explorer.run()
        # with sleep sets the two orders are explored exactly once each
        assert stats.num_schedules <= 3
        assert stats.num_states == 2


class TestLocIndex:
    def test_index_includes_wait_released_mutex(self):
        from repro.core.events import Event

        idx = {}
        e = Event(index=0, tid=0, tindex=0, kind=OpKind.WAIT, oid=4,
                  released_mutex_oid=9)
        DPORExplorer._index_event(idx, e)
        assert (4, None) in idx
        assert (9, None) in idx

    def test_index_skips_objectless_events(self):
        from repro.core.events import Event

        idx = {}
        e = Event(index=0, tid=0, tindex=0, kind=OpKind.YIELD, oid=-1)
        DPORExplorer._index_event(idx, e)
        assert idx == {}


class _CountingTrace(list):
    """A trace that records which positions the race scan inspects."""

    def __init__(self, events):
        super().__init__(events)
        self.inspected = []

    def __getitem__(self, i):
        self.inspected.append(i)
        return list.__getitem__(self, i)


class TestIncrementalAnalysis:
    """Pins on the work the incremental race analysis removed."""

    @staticmethod
    def _scans_per_analysed_state(monkeypatch, name):
        from repro.suite import REGISTRY

        program = next(b.program for b in REGISTRY.values()
                       if b.program.name == name)
        counts = {"states": 0, "scans": 0}
        update = DPORExplorer._update_backtracks
        scan = DPORExplorer._latest_race

        def counting_update(self, *args):
            counts["states"] += 1
            return update(self, *args)

        def counting_scan(self, *args):
            counts["scans"] += 1
            return scan(self, *args)

        monkeypatch.setattr(DPORExplorer, "_update_backtracks",
                            counting_update)
        monkeypatch.setattr(DPORExplorer, "_latest_race", counting_scan)
        stats = DPORExplorer(program).run()
        assert stats.exhausted
        assert counts["states"] > 0
        return counts["scans"] / counts["states"]

    def test_full_scans_per_analysed_state(self, monkeypatch):
        # every step here is tested ahead, so only the thread that
        # stepped and the first analysed state of a run need a full
        # scan; the full-scan analysis did 1.74 per analysed state
        assert self._scans_per_analysed_state(
            monkeypatch, "racy_counter_t3_k1") <= 1.0

    def test_full_scans_after_steps_not_tested_ahead(self, monkeypatch):
        # a condvar notify is not tested ahead, so every thread gets a
        # full scan after one: 1.06 per analysed state here, where
        # scanning every thread at every state does 1.90
        assert self._scans_per_analysed_state(
            monkeypatch, "bounded_buffer_p1_c2_k2_cap2") <= 1.25

    def test_pending_info_built_once_per_op(self, monkeypatch):
        # the record lives on the op, so an op the op-trie serves again
        # in a later schedule (every schedule but the first restores a
        # snapshot here) keeps it: at most one record per distinct
        # pending op, where a per-thread memo reset by every restore
        # built one for nearly every analysed state
        import repro.runtime.executor as executor_module
        from repro.suite import REGISTRY

        program = next(b.program for b in REGISTRY.values()
                       if b.program.name == "disjoint_coarse_t3_k2")
        counts = {"built": 0, "states": 0}
        # the ops themselves are kept, so no id is reused
        ops = {}

        def counting_info(*args):
            counts["built"] += 1
            return PendingInfo(*args)

        # Every pending op is installed by a step or by building or
        # restoring the executor, and every record is built by
        # pending_info: recording the ops after each step and at each
        # pending_info call sees every op that can have a record.
        # (Most analysed states read only the stepping thread's op, so
        # all_pending_infos no longer sees them all.)
        pending_info = Executor.pending_info
        step = Executor.step
        update = DPORExplorer._update_backtracks

        def recording_info(self, tid):
            op = self.threads[tid].pending
            if op is not None:
                ops[id(op)] = op
            return pending_info(self, tid)

        def recording_step(self, tid):
            event = step(self, tid)
            for t in self.threads:
                if t.pending is not None:
                    ops[id(t.pending)] = t.pending
            return event

        def counting_update(self, *args):
            counts["states"] += 1  # once per analysed state
            return update(self, *args)

        monkeypatch.setattr(executor_module, "PendingInfo", counting_info)
        monkeypatch.setattr(Executor, "pending_info", recording_info)
        monkeypatch.setattr(Executor, "step", recording_step)
        monkeypatch.setattr(DPORExplorer, "_update_backtracks",
                            counting_update)
        explorer = DPORExplorer(program)
        stats = explorer.run()
        assert stats.exhausted
        assert explorer.snapshot_tree.hits > 0
        assert 0 < counts["built"] <= len(ops)
        if executor_module._OPCACHE_ON:
            # with the op-trie off (REPRO_OPCACHE=0) every restore
            # fast-forwards generators into fresh ops, each of which
            # needs its own record: only the bound above holds then
            assert counts["built"] * 10 < counts["states"]

    @pytest.mark.parametrize("name", ["disjoint_coarse_t3_k2",
                                      "racy_counter_t3_k1"])
    def test_backtrack_replays_about_one_step(self, name):
        # a race the test ahead of a step registers captures the state
        # the step departs from, so a backtrack there restores it and
        # replays the re-chosen step alone; capturing only on a later
        # replay pass read 4.40 and 2.11 replayed events per restore
        from repro.explore import ExplorationLimits
        from repro.suite import REGISTRY

        program = next(b.program for b in REGISTRY.values()
                       if b.program.name == name)
        explorer = DPORExplorer(program,
                                ExplorationLimits(max_schedules=2000))
        assert explorer.run().exhausted
        counters = explorer.snapshot_tree
        restores = counters.hits + counters.misses
        assert restores > 0
        assert counters.replayed_events <= 1.25 * restores

    def test_ordered_modification_ends_the_scan(self):
        # x: T1 writes twice, T0 reads (seeing both writes), T2 reads.
        # T0's next read of x is ordered after T1's second write, and
        # the engine joined T1's first write into it: the backward scan
        # must stop there without looking at the first write.
        from repro.core.events import Event

        x = 5
        trace = [
            Event(0, 1, 0, OpKind.WRITE, x, None, None, (0, 1, 0), None),
            Event(1, 1, 1, OpKind.WRITE, x, None, None, (0, 2, 0), None),
            Event(2, 0, 0, OpKind.READ, x, None, None, (1, 2, 0), None),
            Event(3, 2, 0, OpKind.READ, x, None, None, (0, 2, 1), None),
        ]
        loc_index = {}
        for e in trace:
            DPORExplorer._index_event(loc_index, e)
        trace = _CountingTrace(trace)
        pend = PendingInfo(0, int(OpKind.READ), x, None)
        explorer = DPORExplorer(TestRaceAnalysis()._program())
        race = explorer._latest_race(trace, loc_index, pend, [1, 2, 0])
        assert race is None
        # T2's read (unordered, but read/read), T0's own read (ordered,
        # not a modification), T1's second write (ordered: stop)
        assert trace.inspected == [3, 2, 1]

    def test_released_mutex_entry_ends_the_scan(self):
        # T1 locks m and waits on cv (releasing m); T0 notifies cv,
        # which orders T0 after the wait.  The WAIT is indexed under m
        # only through the mutex it released, and observe published it
        # there as a modification: T0's pending lock of m must stop at
        # it without inspecting T1's lock.
        from repro.core.events import Event

        m, cv = 3, 7
        trace = [
            Event(0, 1, 0, OpKind.LOCK, m, None, None, (0, 1), None),
            Event(1, 1, 1, OpKind.WAIT, cv, None, None, (0, 2), None, m),
            Event(2, 0, 0, OpKind.NOTIFY, cv, None, None, (1, 2), None),
        ]
        loc_index = {}
        for e in trace:
            DPORExplorer._index_event(loc_index, e)
        trace = _CountingTrace(trace)
        pend = PendingInfo(0, int(OpKind.LOCK), m, None)
        explorer = DPORExplorer(TestRaceAnalysis()._program())
        race = explorer._latest_race(trace, loc_index, pend, [1, 2])
        assert race is None
        assert trace.inspected == [1]


def test_label_ahead_is_the_stamped_label(monkeypatch):
    # DPOR tests a step ahead of it against the stepping thread's
    # record (Executor.label_ahead): on every suite program, each step
    # whose label is known ahead stamps exactly that label
    from repro.explore import ExplorationLimits
    from repro.suite import REGISTRY

    step = Executor.step
    seen = set()

    def checking_step(self, tid):
        info = self.label_ahead(tid)
        event = step(self, tid)
        if info is not None:
            assert (event.kind, event.oid, event.key,
                    event.released_mutex_oid) == (
                info.kind, info.oid, info.key, info.released_mutex_oid)
            seen.add(event.kind.name)
        return event

    monkeypatch.setattr(Executor, "step", checking_step)
    for bench in REGISTRY.values():
        DPORExplorer(bench.program,
                     ExplorationLimits(max_schedules=30)).run()
    assert {"LOCK", "UNLOCK", "WAIT", "NOTIFY", "NOTIFY_ALL", "READ",
            "WRITE", "RMW", "EXIT", "SEM_ACQUIRE", "BARRIER_WAIT",
            "CHAN_SEND", "CHAN_RECV", "FUT_SET", "FUT_GET"} <= seen, seen


def test_waking_kind_must_declare_gives_ops(monkeypatch):
    # the test ahead of a step assumes the step leaves every other
    # thread its op; a kind that wakes threads without declaring it
    # in the kind registry is refused, not explored inexactly
    import repro.runtime.executor as executor_module
    from repro.errors import SchedulerError

    def build(p):
        m = p.mutex("m")
        cv = p.condition("cv")
        ready = p.var("ready", 0)

        def waiter(api):
            yield api.lock(m)
            while not (yield api.read(ready)):
                yield api.wait(cv, m)
            yield api.unlock(m)

        def notifier(api):
            yield api.lock(m)
            yield api.write(ready, 1)
            yield api.notify(cv)
            yield api.unlock(m)

        p.thread(waiter)
        p.thread(notifier)

    program = Program("wake", build)
    assert DPORExplorer(program).run().exhausted
    monkeypatch.setattr(executor_module, "GIVES_OPS",
                        (False,) * len(OpKind))
    with pytest.raises(SchedulerError, match="gives_ops"):
        DPORExplorer(program).run()


def test_restore_into_a_used_explorer():
    # the trace and its per-location index persist across schedules,
    # describing the spine's path; a checkpoint restored into an
    # explorer that has already run keeps all three consistent, and the
    # resumed run matches one on a fresh explorer
    import json

    from repro.explore import ExplorationLimits
    from repro.suite import REGISTRY

    program = next(b.program for b in REGISTRY.values()
                   if b.program.name == "racy_counter_t3_k1")
    partial = DPORExplorer(program, ExplorationLimits(max_schedules=10))
    partial.run()
    payload = json.loads(json.dumps(partial.snapshot()))
    used = DPORExplorer(program, ExplorationLimits(max_schedules=7))
    used.run()
    assert used._trace and len(used._spine) > 1
    used.limits = ExplorationLimits()
    used.restore(payload)
    fresh = DPORExplorer(program)
    fresh.restore(payload)
    resumed, want = used.run().to_dict(), fresh.run().to_dict()
    resumed.pop("elapsed")
    want.pop("elapsed")
    assert resumed == want
    assert want["exhausted"]


@pytest.mark.parametrize("name", [
    "dfs", "hbr-caching", "lazy-hbr-caching", "dpor", "lazy-dpor",
    "random", "pct",
])
def test_one_fresh_executor_per_run(name, monkeypatch):
    # every explorer gets its executors through one acquire/retire
    # path: only the first schedule builds an executor, every later
    # one is a snapshot restore or is served the executor the previous
    # schedule left standing at its parent (the caching explorers hold
    # one whenever a cache probe prunes a step before it runs), and
    # each restore recycles the instance the previous schedule retired
    from repro.explore import ExplorationLimits
    from repro.explore.base import Explorer
    from repro.explore.controller import make_explorer
    from repro.suite import REGISTRY

    init = Executor.__init__
    restore = Executor.from_snapshot.__func__
    acquire = Explorer._executor_at
    counts = {"new": 0, "restores": 0, "pooled": 0, "held": 0}

    def counting_init(self, *args, **kwargs):
        counts["new"] += 1
        init(self, *args, **kwargs)

    def counting_restore(cls, snap, reuse=None):
        counts["restores"] += 1
        counts["pooled"] += reuse is not None
        return restore(cls, snap, reuse=reuse)

    def counting_acquire(self, prefix):
        held = self._held
        ex, depth = acquire(self, prefix)
        counts["held"] += held is not None and ex is held[1]
        return ex, depth

    monkeypatch.setattr(Executor, "__init__", counting_init)
    monkeypatch.setattr(Executor, "from_snapshot",
                        classmethod(counting_restore))
    monkeypatch.setattr(Explorer, "_executor_at", counting_acquire)
    explorer = make_explorer(name, REGISTRY[3].program,
                             ExplorationLimits(max_schedules=200))
    stats = explorer.run()
    assert counts["new"] == 1
    assert counts["restores"] + counts["held"] \
        == stats.num_schedules - 1 > 0
    assert counts["pooled"] == counts["restores"]
    if name in ("hbr-caching", "lazy-hbr-caching"):
        assert counts["held"] > 0
