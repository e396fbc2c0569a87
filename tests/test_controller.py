"""Tests for ``run_single``, the one function that builds and runs a
cell's explorer."""

import pytest

from repro.explore import ExplorationLimits
from repro.explore.controller import STANDARD_EXPLORERS, run_single
from repro.suite import REGISTRY


class TestRunSingle:
    def test_unknown_explorer_rejected(self):
        with pytest.raises(KeyError):
            run_single(REGISTRY[1].program, "nope")

    def test_all_standard_explorers_run(self):
        limits = ExplorationLimits(max_schedules=200)
        for name in sorted(STANDARD_EXPLORERS):
            stats = run_single(REGISTRY[1].program, name, limits)
            assert stats.num_schedules >= 1, name

    def test_all_strategies_agree_on_figure1(self):
        lim = ExplorationLimits(max_schedules=500)
        sets = {
            name: run_single(REGISTRY[1].program, name, lim).state_hashes
            for name in ("dfs", "dpor", "hbr-caching", "lazy-hbr-caching",
                         "lazy-dpor")
        }
        baseline = sets["dfs"]
        assert all(s == baseline for s in sets.values())
