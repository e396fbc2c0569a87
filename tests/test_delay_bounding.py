"""Tests for delay-bounded exploration."""

import pytest

from repro.explore import (
    DelayBoundedExplorer,
    DFSExplorer,
    ExplorationLimits,
)
from repro.suite import REGISTRY

LIM = ExplorationLimits(max_schedules=50_000)


class TestDelayBounded:
    def test_bound_zero_single_schedule(self):
        stats = DelayBoundedExplorer(REGISTRY[1].program, LIM, bound=0).run()
        assert stats.exhausted
        assert stats.num_schedules == 1

    def test_negative_bound_rejected(self):
        with pytest.raises(ValueError):
            DelayBoundedExplorer(REGISTRY[1].program, LIM, bound=-1)

    def test_coverage_grows_with_bound(self):
        prog = REGISTRY[3].program  # racy_counter 2x2
        counts, states = [], []
        for b in (0, 1, 2, 4):
            stats = DelayBoundedExplorer(prog, LIM, bound=b).run()
            counts.append(stats.num_schedules)
            states.append(stats.num_states)
        assert counts == sorted(counts)
        assert states == sorted(states)
        assert states[0] < states[-1]

    def test_finds_deadlock_with_one_delay(self):
        prog = REGISTRY[36].program  # AB-BA deadlock
        stats = DelayBoundedExplorer(prog, LIM, bound=1).run()
        assert any(e.kind == "DeadlockError" for e in stats.errors)

    def test_large_bound_reaches_all_dfs_states(self):
        prog = REGISTRY[2].program  # racy_counter 2x1
        dfs = DFSExplorer(prog, LIM).run()
        db = DelayBoundedExplorer(prog, LIM, bound=10).run()
        assert db.num_states == dfs.num_states

    def test_delay_cheaper_than_preemption_on_buggy_programs(self):
        # classic claim: delay bound 1 suffices where preemption
        # exploration needs to consider many switch placements
        prog = REGISTRY[36].program
        stats = DelayBoundedExplorer(prog, LIM, bound=1).run()
        assert stats.num_schedules <= 20

    def test_inequality_holds(self):
        stats = DelayBoundedExplorer(REGISTRY[11].program, LIM, bound=2).run()
        stats.verify_inequality()


class TestMatrixReport:
    def test_report_renders(self):
        from repro.campaign import (
            build_cells,
            comparison_rows,
            matrix_report,
            run_campaign,
        )
        campaign = run_campaign(
            build_cells([1], ["dpor", "delay-bounded"]),
            ExplorationLimits(max_schedules=300),
        )
        text = matrix_report(comparison_rows(campaign.results))
        assert "figure1" in text
        assert "dpor" in text and "delay-bounded" in text
        assert "exhausted" in text
