"""Tests for the dual clock engine: regular vs lazy happens-before."""

from repro import Program, execute
from repro.core import canonical_hbr
from repro.core.events import OpKind
from repro.explore import ExplorationLimits
from repro.explore.dfs import DFSExplorer
from repro.suite import REGISTRY

#: small suite programs with mutexes (regular and lazy HBRs differ),
#: data races, condvar release edges and virtual time
CANONICAL_IDS = (1, 3, 10, 24, 89)


def run(build, schedule=None):
    return execute(Program("t", build), schedule=schedule)


class TestMutexEdges:
    def test_figure1_lock_edge_only_in_regular(self, figure1_program):
        r = execute(figure1_program, schedule=[0, 0, 0, 0, 0, 1])
        t1_lock = next(e for e in r.events if e.tid == 1 and e.kind == OpKind.LOCK)
        # regular: ordered after T0's unlock (component 0 inherited)
        assert t1_lock.clock[0] > 0
        # lazy: no mutex edge, so no knowledge of T0 at all
        assert t1_lock.lazy_clock[0] == 0

    def test_data_edges_in_both(self):
        def build(p):
            x = p.var("x", 0)

            def w(api):
                yield api.write(x, 1)

            def r_(api):
                yield api.read(x)

            p.thread(w)
            p.thread(r_)

        r = run(build, schedule=[0, 0, 1])
        read = next(e for e in r.events if e.kind == OpKind.READ)
        assert read.clock[0] > 0
        assert read.lazy_clock[0] > 0

    def test_read_read_no_edge_in_either(self):
        def build(p):
            x = p.var("x", 0)

            def rd(api):
                yield api.read(x)

            p.thread(rd)
            p.thread(rd)

        r = run(build, schedule=[0, 0, 1])
        second = next(e for e in r.events if e.tid == 1 and e.kind == OpKind.READ)
        assert second.clock[0] == 0
        assert second.lazy_clock[0] == 0


class TestLazyContainment:
    def test_lazy_clock_leq_regular_clock_everywhere(self, figure1_program):
        from repro.core.vector_clock import tuple_leq
        r = execute(figure1_program)
        for e in r.events:
            assert tuple_leq(e.lazy_clock, e.clock), (
                "the lazy HBR must be a subset of the regular HBR"
            )

    def test_lazy_containment_on_condvar_program(self):
        from repro.core.vector_clock import tuple_leq
        from repro.suite.buffers import pingpong
        r = execute(pingpong(1))
        for e in r.events:
            assert tuple_leq(e.lazy_clock, e.clock)


class TestSynchronisationEdges:
    def test_notify_edge_survives_in_lazy(self):
        def build(p):
            m = p.mutex("m")
            cv = p.condition("cv")
            flag = p.var("flag", 0)

            def waiter(api):
                yield api.lock(m)
                f = yield api.read(flag)
                if not f:
                    yield api.wait(cv, m)
                yield api.unlock(m)

            def notifier(api):
                yield api.lock(m)
                yield api.write(flag, 1)
                yield api.notify(cv)
                yield api.unlock(m)

            p.thread(waiter)
            p.thread(notifier)

        # waiter first: lock, read, wait; then notifier runs fully;
        # then waiter re-acquires and unlocks.
        r = run(build, schedule=[0, 0, 0, 1, 1, 1, 1, 1, 0])
        resume_lock = [e for e in r.events
                       if e.tid == 0 and e.kind == OpKind.LOCK][-1]
        # even in the lazy relation the wakeup is ordered after notify
        assert resume_lock.lazy_clock[1] > 0

    def test_spawn_edge_in_both(self):
        def build(p):
            x = p.var("x", 0)

            def child(api):
                yield api.read(x)

            def main(api):
                yield api.write(x, 1)
                yield api.spawn(child)

            p.thread(main)

        r = run(build)
        child_read = next(e for e in r.events
                          if e.tid == 1 and e.kind == OpKind.READ)
        assert child_read.clock[0] >= 2
        assert child_read.lazy_clock[0] >= 2

    def test_exit_join_edge_in_both(self):
        def build(p):
            x = p.var("x", 0)

            def child(api):
                yield api.write(x, 5)

            def main(api):
                tid = yield api.spawn(child)
                yield api.join(tid)
                yield api.read(x)

            p.thread(main)

        r = run(build)
        join_ev = next(e for e in r.events if e.kind == OpKind.JOIN)
        exit_ev = next(e for e in r.events
                       if e.kind == OpKind.EXIT and e.tid == 1)
        from repro.core.vector_clock import tuple_leq
        assert tuple_leq(exit_ev.clock, join_ev.clock)
        assert tuple_leq(exit_ev.lazy_clock, join_ev.lazy_clock)


class TestFingerprints:
    def test_equivalent_schedules_same_fingerprints(self, figure1_program):
        # swapping the independent write(z) with T0's events preserves
        # both relations
        a = execute(figure1_program, schedule=[0, 0, 0, 0, 0, 1, 1, 1, 1, 1])
        b = execute(figure1_program, schedule=[1, 0, 0, 0, 0, 0, 1, 1, 1, 1])
        assert a.hbr_fp == b.hbr_fp
        assert a.lazy_fp == b.lazy_fp

    def test_different_lock_orders_differ_only_in_regular(self, figure1_program):
        a = execute(figure1_program, schedule=[0, 0, 0, 0, 0, 1])
        b = execute(figure1_program, schedule=[1, 1, 1, 1, 1, 0])
        assert a.hbr_fp != b.hbr_fp         # different HBR classes
        assert a.lazy_fp == b.lazy_fp       # one lazy class (the paper's point)
        assert a.state_hash == b.state_hash

    def test_conflicting_orders_differ_in_both(self, two_writers_program):
        a = execute(two_writers_program, schedule=[0, 0, 1])
        b = execute(two_writers_program, schedule=[1, 1, 0])
        assert a.hbr_fp != b.hbr_fp
        assert a.lazy_fp != b.lazy_fp
        assert a.state_hash != b.state_hash

    def test_canonical_forms_match_fingerprints(self):
        """Over every complete DFS schedule of a few small suite
        programs, the exact forms read off the events are equal
        exactly when the fingerprints are, in each relation."""
        for bid in CANONICAL_IDS:
            program = REGISTRY[bid].program
            dfs = DFSExplorer(program, ExplorationLimits(max_schedules=1000))
            dfs.schedule_sink = []
            assert dfs.run().exhausted
            runs = [execute(program, schedule=s) for s in dfs.schedule_sink]
            classes = []
            for lazy in (False, True):
                pairs = {(canonical_hbr(r.events, lazy),
                          r.lazy_fp if lazy else r.hbr_fp) for r in runs}
                forms = {form for form, _ in pairs}
                fps = {fp for _, fp in pairs}
                assert len(forms) == len(fps) == len(pairs), (bid, lazy)
                classes.append(len(pairs))
            if bid == 1:  # figure 1: two HBRs, one lazy HBR
                assert classes == [2, 1]
