"""The paper's evaluation claims, asserted at the repository's campaign
budget: 2,000 schedules on each of the 96 suite programs, the cells of
``perfbench/``'s ``paper-campaign`` workload.

* Figure 2: DPOR's terminal lazy HBRs never exceed its terminal HBRs,
  and a large share of the HBRs explored on the benchmarks strictly
  below the diagonal is redundant (the paper: 33 of 79 benchmarks
  below, 80% of their HBRs redundant).
* Figure 3: lazy HBR caching reaches at least as many terminal lazy
  HBRs as regular caching.  Where both exhaust, the counts are equal.
  The gain shows only where a budget binds, as on the scaled
  ``work_queue_shared(2,4)`` instance (README's Figure 3 bullets).

The Section 3 chain ``#states <= #lazy HBRs <= #HBRs <= #schedules``
is also checked inside every figure cell (``run_single(verify=True)``).
"""

import pytest

from repro.analysis import redundancy_summary, run_figure2, run_figure3
from repro.analysis.runner import DEFAULT_LIMIT
from repro.explore import (
    ExplorationLimits,
    HBRCachingExplorer,
    PCTExplorer,
    RandomWalkExplorer,
)
from repro.suite import REGISTRY
from repro.suite.collections_prog import work_queue_shared


@pytest.fixture(scope="module")
def figure2_rows():
    return run_figure2(schedule_limit=DEFAULT_LIMIT)


@pytest.fixture(scope="module")
def figure3_rows():
    return run_figure3(schedule_limit=DEFAULT_LIMIT)


def test_figure2_lazy_hbrs_make_most_hbrs_redundant(figure2_rows):
    assert len(figure2_rows) == len(REGISTRY)
    for row in figure2_rows:
        assert (row.num_states <= row.num_lazy_hbrs <= row.num_hbrs
                <= row.num_schedules <= DEFAULT_LIMIT), row
    summary = redundancy_summary([r.as_point() for r in figure2_rows])
    # measured: 27 of 96 below the diagonal, 539 of their 608 HBRs
    # (88.7%) redundant
    below = summary["num_below_diagonal"] / summary["num_benchmarks"]
    assert below >= 0.25, f"only {below:.0%} below the diagonal"
    assert summary["redundant_pct"] >= 50.0, summary


def test_figure2_counts_grow_with_the_budget():
    # disjoint_coarse_t3_k2: 50 schedules bind, 200 exhaust it
    bench = [REGISTRY[13]]
    small = run_figure2(bench, schedule_limit=50)[0]
    large = run_figure2(bench, schedule_limit=200)[0]
    assert small.limit_hit and not large.limit_hit
    assert small.num_hbrs <= large.num_hbrs
    assert small.num_lazy_hbrs <= large.num_lazy_hbrs
    assert small.num_states <= large.num_states


def test_figure3_lazy_caching_never_reaches_fewer(figure3_rows):
    assert len(figure3_rows) == len(REGISTRY)
    for row in figure3_rows:
        lazy = row.lazy_hbrs_lazy_caching
        regular = row.lazy_hbrs_regular_caching
        assert lazy >= regular, row
        if not row.limit_hit:
            # both exhausted: both reached every lazy HBR
            assert lazy == regular, row
    # as README's Figure 3 bullets say, lazy caching needs fewer
    # schedules in total (23,847 against 33,764) and exhausts
    # disjoint_coarse_t3_k2, where regular caching hits the budget
    assert (sum(r.schedules_lazy for r in figure3_rows)
            < sum(r.schedules_regular for r in figure3_rows))
    coarse = next(r for r in figure3_rows if r.bench_id == 13)
    assert coarse.schedules_regular == DEFAULT_LIMIT
    assert coarse.schedules_lazy < DEFAULT_LIMIT
    # under a tight budget on the same program, lazy caching still
    # reaches no fewer lazy HBRs
    tight = run_figure3([REGISTRY[13]], schedule_limit=60)[0]
    assert tight.lazy_hbrs_lazy_caching >= tight.lazy_hbrs_regular_caching


def test_figure3_lazy_caching_gains_where_the_budget_binds():
    # the numbers README and DESIGN quote for the scaled instance
    program = work_queue_shared(2, 4)
    lim = ExplorationLimits(max_schedules=DEFAULT_LIMIT)
    regular = HBRCachingExplorer(program, lim, lazy=False).run()
    lazy = HBRCachingExplorer(program, lim, lazy=True).run()
    assert regular.limit_hit and lazy.limit_hit
    assert (regular.num_lazy_hbrs, lazy.num_lazy_hbrs) == (91, 112)


def test_random_walk_and_pct_reach_figure1s_single_state():
    program = REGISTRY[1].program
    lim = ExplorationLimits(max_schedules=200)
    assert RandomWalkExplorer(program, lim, seed=1).run().num_states == 1
    assert PCTExplorer(program, lim, depth=3, seed=1).run().num_states == 1
