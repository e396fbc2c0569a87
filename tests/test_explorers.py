"""Tests for the exploration strategies on small hand-built programs."""

import json

import pytest

from repro import Program
from repro.explore import (
    DFSExplorer,
    DPORExplorer,
    ExplorationLimits,
    HBRCachingExplorer,
    LazyDPORExplorer,
    PCTExplorer,
    PreemptionBoundedExplorer,
    RandomWalkExplorer,
)
from repro.explore.base import ExplorationStats

LIM = ExplorationLimits(max_schedules=50_000)


class TestDFS:
    def test_counts_on_figure1(self, figure1_program):
        stats = DFSExplorer(figure1_program, LIM).run()
        assert stats.exhausted
        assert stats.num_schedules == 72
        assert stats.num_hbrs == 2
        assert stats.num_lazy_hbrs == 1
        assert stats.num_states == 1

    def test_single_thread_one_schedule(self):
        def build(p):
            x = p.var("x", 0)

            def t(api):
                yield api.write(x, 1)

            p.thread(t)

        stats = DFSExplorer(Program("t", build), LIM).run()
        assert stats.exhausted
        assert stats.num_schedules == 1

    def test_limit_truncates(self, figure1_program):
        stats = DFSExplorer(
            figure1_program, ExplorationLimits(max_schedules=10)
        ).run()
        assert stats.limit_hit
        assert not stats.exhausted
        assert stats.num_schedules == 10

    def test_racy_writers_states(self, two_writers_program):
        stats = DFSExplorer(two_writers_program, LIM).run()
        assert stats.exhausted
        assert stats.num_states == 2  # x == 1 or x == 2


class TestDPOR:
    def test_figure1_two_classes(self, figure1_program):
        stats = DPORExplorer(figure1_program, LIM).run()
        assert stats.exhausted
        assert stats.num_schedules == 2
        assert stats.num_hbrs == 2

    def test_never_explores_more_than_dfs(self, locked_pair_program):
        dfs = DFSExplorer(locked_pair_program, LIM).run()
        dpor = DPORExplorer(locked_pair_program, LIM).run()
        assert dpor.num_schedules <= dfs.num_schedules
        assert dpor.num_states == dfs.num_states

    def test_sleep_sets_reduce_schedules(self):
        from repro.suite.counters import racy_counter
        prog = racy_counter(3, 1)
        with_sleep = DPORExplorer(prog, LIM, sleep_sets=True).run()
        without = DPORExplorer(prog, LIM, sleep_sets=False).run()
        assert with_sleep.num_schedules <= without.num_schedules
        assert with_sleep.num_states == without.num_states

    def test_finds_deadlock(self):
        from repro.suite.locks import lock_order_deadlock
        stats = DPORExplorer(lock_order_deadlock(), LIM).run()
        assert any(e.kind == "DeadlockError" for e in stats.errors)

    def test_error_schedule_reproduces(self):
        from repro.runtime.schedule import execute
        from repro.suite.locks import lock_order_deadlock
        prog = lock_order_deadlock()
        stats = DPORExplorer(prog, LIM).run()
        finding = next(e for e in stats.errors
                       if e.kind == "DeadlockError")
        r = execute(prog, schedule=finding.schedule)
        assert r.error is not None


class TestCaching:
    def test_regular_vs_lazy_on_figure1(self, figure1_program):
        reg = HBRCachingExplorer(figure1_program, LIM, lazy=False).run()
        lazy = HBRCachingExplorer(figure1_program, LIM, lazy=True).run()
        assert reg.exhausted and lazy.exhausted
        # both must find the single state; the lazy variant prunes harder
        assert reg.num_states == lazy.num_states == 1
        assert lazy.num_schedules <= reg.num_schedules
        # exact counts pin the probe rule: every prefix is probed, each
        # work item's own first step included
        assert reg.num_schedules == 20
        assert lazy.num_schedules == 18
        assert lazy.extra["cache_size"] <= reg.extra["cache_size"]

    def test_cache_stats_exposed(self, figure1_program):
        stats = HBRCachingExplorer(figure1_program, LIM).run()
        assert stats.extra["cache_size"] > 0
        assert stats.extra["cache_hits"] > 0

    def test_pruned_runs_counted(self, figure1_program):
        stats = HBRCachingExplorer(figure1_program, LIM).run()
        assert stats.num_pruned > 0
        assert stats.num_pruned + stats.num_complete == stats.num_schedules


class TestLazyDPOR:
    def test_explores_at_most_dpor(self, figure1_program):
        dpor = DPORExplorer(figure1_program, LIM).run()
        lazy = LazyDPORExplorer(figure1_program, LIM).run()
        assert lazy.num_schedules <= dpor.num_schedules
        assert lazy.num_states == dpor.num_states

    def test_disjoint_sections_collapse(self):
        from repro.suite.counters import disjoint_coarse
        prog = disjoint_coarse(3, 1)
        dpor = DPORExplorer(prog, LIM).run()
        lazy = LazyDPORExplorer(prog, LIM).run()
        assert dpor.num_hbrs == 6          # 3! orders of the sections
        assert lazy.num_states == 1
        # branches equivalent under the lazy HBR are pruned early, so
        # far fewer runs reach a terminal state and far less work is done
        assert lazy.num_complete < dpor.num_complete
        assert lazy.num_events < dpor.num_events


class TestRandomWalk:
    def test_runs_exactly_budget(self, figure1_program):
        stats = RandomWalkExplorer(
            figure1_program, ExplorationLimits(max_schedules=25), seed=3
        ).run()
        assert stats.num_schedules == 25
        assert stats.limit_hit

    def test_inequality_holds(self, two_writers_program):
        stats = RandomWalkExplorer(
            two_writers_program, ExplorationLimits(max_schedules=50)
        ).run()
        stats.verify_inequality()


class TestPCT:
    def test_finds_both_orders_of_a_race(self, two_writers_program):
        stats = PCTExplorer(
            two_writers_program, ExplorationLimits(max_schedules=60),
            depth=2, seed=1,
        ).run()
        assert stats.num_states == 2

    def test_depth_validated(self, two_writers_program):
        with pytest.raises(ValueError):
            PCTExplorer(two_writers_program, LIM, depth=0)


class TestPreemptionBounded:
    def test_bound_zero_no_preemptions(self, two_writers_program):
        stats = PreemptionBoundedExplorer(
            two_writers_program, LIM, bound=0
        ).run()
        # without preemptions only thread-completion orders remain
        assert stats.exhausted
        assert stats.num_schedules == 2

    def test_unbounded_equals_dfs(self, figure1_program):
        dfs = DFSExplorer(figure1_program, LIM).run()
        unbounded = PreemptionBoundedExplorer(
            figure1_program, LIM, bound=None
        ).run()
        assert unbounded.num_schedules == dfs.num_schedules
        assert unbounded.num_states == dfs.num_states

    def test_iterative_bounds_monotone(self, figure1_program):
        counts = [
            PreemptionBoundedExplorer(figure1_program, LIM, bound=c)
            .run().num_schedules
            for c in (0, 1, 2)
        ]
        assert counts == sorted(counts)

    def test_bound_zero_misses_states_bound_two_finds(self):
        # the classic preemption-bounding story on a racy counter
        from repro.suite.counters import racy_counter
        prog = racy_counter(2, 1)
        s0 = PreemptionBoundedExplorer(prog, LIM, bound=0).run()
        s2 = PreemptionBoundedExplorer(prog, LIM, bound=2).run()
        assert s0.num_states < s2.num_states


def build_spin(p):
    # one thread waits for a flag the other never writes: every run is
    # cut at max_events_per_schedule
    flag = p.var("flag", 0)
    other = p.var("other", 0)

    def spinner(api):
        while not (yield api.read(flag)):
            pass

    def idle(api):
        yield api.write(other, 1)

    p.thread(spinner)
    p.thread(idle)


SPIN_LIM = ExplorationLimits(max_schedules=20, max_events_per_schedule=200)


class TestTruncatedRuns:
    @pytest.mark.parametrize("explorer_cls,truncated", [
        (DFSExplorer, 20),
        (HBRCachingExplorer, 3),
        (DPORExplorer, 1),
    ])
    def test_truncated_runs_are_not_terminal(self, explorer_cls,
                                             truncated):
        stats = explorer_cls(Program("spin", build_spin), SPIN_LIM).run()
        assert stats.num_truncated == truncated
        assert stats.num_complete == 0
        assert stats.num_states == stats.num_lazy_hbrs == \
            stats.num_hbrs == 0
        assert not stats.state_hashes
        assert (stats.num_complete + stats.num_pruned
                + stats.num_truncated) == stats.num_schedules

    def test_shards_sum_truncated_runs(self):
        seed = DFSExplorer(Program("spin", build_spin), SPIN_LIM)
        merged = seed.run_seed(min_items=2, max_schedules=4)
        assert merged.num_truncated == merged.num_schedules == 1
        for shard in seed.frontier.split(2):
            worker = DFSExplorer(
                Program("spin", build_spin),
                ExplorationLimits(max_schedules=5,
                                  max_events_per_schedule=200),
            )
            worker.frontier = shard
            merged.merge(ExplorationStats.from_dict(
                json.loads(json.dumps(worker.run().to_dict()))
            ))
        assert merged.num_truncated == merged.num_schedules == 11
        assert merged.num_complete == merged.num_states == 0
        legacy = merged.to_dict()
        del legacy["num_truncated"]
        assert ExplorationStats.from_dict(legacy).num_truncated == 0


class TestStatsInvariants:
    @pytest.mark.parametrize("explorer_cls,kw", [
        (DFSExplorer, {}),
        (DPORExplorer, {}),
        (HBRCachingExplorer, {}),
        (HBRCachingExplorer, {"lazy": True}),
        (LazyDPORExplorer, {}),
        (RandomWalkExplorer, {}),
    ])
    def test_inequality_everywhere(self, figure1_program, explorer_cls, kw):
        stats = explorer_cls(
            figure1_program, ExplorationLimits(max_schedules=200), **kw
        ).run()
        stats.verify_inequality()

    def test_summary_is_printable(self, figure1_program):
        stats = DPORExplorer(figure1_program, LIM).run()
        assert "figure1" in stats.summary()
