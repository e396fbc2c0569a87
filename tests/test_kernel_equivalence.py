"""Golden equivalence: kernel-ported explorers vs the pre-refactor
frame-based implementations (frozen in ``reference_explorers.py``).

For every ported DFS-family strategy, over a behaviour-spanning subset
of the ``small`` suite, the kernel port must produce **byte-identical**

* schedule sequences (the exact order of executed schedules, including
  pruned prefixes),
* fingerprint/state-hash sets, and
* statistics (everything except wall-clock ``elapsed``),

both on exhaustive runs and under a binding ``max_schedules`` budget
(same order => same cutoff point).

Random walk and PCT, which restore a boot snapshot for every schedule
after the first, are held to their former fresh-executor-per-schedule
loops the same way (statistics, over every small program and three
seeds).
"""

from __future__ import annotations

import pytest

from repro.explore import ExplorationLimits
from repro.explore.dfs import DFSExplorer
from repro.explore.bounded import (
    IterativeContextBoundingExplorer,
    PreemptionBoundedExplorer,
)
from repro.explore.caching import HBRCachingExplorer
from repro.explore.delay import DelayBoundedExplorer
from repro.explore.pct import PCTExplorer
from repro.explore.random_walk import RandomWalkExplorer
from repro.suite import REGISTRY, small_benchmarks

from reference_explorers import (
    ReferenceDFS,
    ReferenceDelayBounded,
    ReferenceHBRCaching,
    ReferenceIterativeCB,
    ReferencePCT,
    ReferencePreemptionBounded,
    ReferenceRandomWalk,
)

#: behaviour-spanning subset of the small suite: racy counters, coarse
#: locks (disjoint + mixed), condvars/buffers, a deadlock, an assertion
#: violation, a mutual-exclusion protocol, an SC litmus test
BENCH_IDS = (1, 2, 3, 5, 10, 17, 24, 28, 36, 47, 48, 75)

STRATEGIES = [
    ("dfs",
     lambda p, lim: DFSExplorer(p, lim),
     lambda p, lim: ReferenceDFS(p, lim)),
    ("preempt-bounded(1)",
     lambda p, lim: PreemptionBoundedExplorer(p, lim, bound=1),
     lambda p, lim: ReferencePreemptionBounded(p, lim, bound=1)),
    ("preempt-bounded(2)",
     lambda p, lim: PreemptionBoundedExplorer(p, lim, bound=2),
     lambda p, lim: ReferencePreemptionBounded(p, lim, bound=2)),
    ("iterative-cb",
     lambda p, lim: IterativeContextBoundingExplorer(p, lim, max_bound=2),
     lambda p, lim: ReferenceIterativeCB(p, lim, max_bound=2)),
    ("delay-bounded(2)",
     lambda p, lim: DelayBoundedExplorer(p, lim, bound=2),
     lambda p, lim: ReferenceDelayBounded(p, lim, bound=2)),
    ("hbr-caching",
     lambda p, lim: HBRCachingExplorer(p, lim, lazy=False),
     lambda p, lim: ReferenceHBRCaching(p, lim, lazy=False)),
    ("lazy-hbr-caching",
     lambda p, lim: HBRCachingExplorer(p, lim, lazy=True),
     lambda p, lim: ReferenceHBRCaching(p, lim, lazy=True)),
]


def _run_pair(bench_id, make_new, make_ref, limit):
    program = REGISTRY[bench_id].program
    lim = ExplorationLimits(max_schedules=limit)
    new = make_new(program, lim)
    new.schedule_sink = []
    new_stats = new.run()
    ref = make_ref(program, lim)
    ref_stats = ref.run()
    return new, new_stats, ref, ref_stats


@pytest.mark.parametrize("label,make_new,make_ref",
                         STRATEGIES, ids=[s[0] for s in STRATEGIES])
@pytest.mark.parametrize("bench_id", BENCH_IDS)
def test_byte_identical_schedules_and_stats(bench_id, label, make_new,
                                            make_ref):
    new, new_stats, ref, ref_stats = _run_pair(
        bench_id, make_new, make_ref, limit=400,
    )
    assert new.schedule_sink == ref.schedule_log, (
        f"schedule sequences diverge on bench {bench_id} / {label}"
    )
    new_dict, ref_dict = new_stats.to_dict(), ref_stats.to_dict()
    new_dict.pop("elapsed")
    ref_dict.pop("elapsed")
    assert new_dict == ref_dict


@pytest.mark.parametrize("label,make_new,make_ref",
                         STRATEGIES, ids=[s[0] for s in STRATEGIES])
def test_budget_cutoff_identical(label, make_new, make_ref):
    # a binding budget must cut the identical sequence at the identical
    # point — racy_counter(2,2) has 252 DFS schedules
    new, new_stats, ref, ref_stats = _run_pair(
        3, make_new, make_ref, limit=37,
    )
    assert new_stats.limit_hit == ref_stats.limit_hit
    assert new.schedule_sink == ref.schedule_log
    assert new_stats.num_schedules == ref_stats.num_schedules == 37 or \
        not new_stats.limit_hit


def test_full_small_suite_dfs_equivalence():
    # DFS is the ground truth every reduction is compared against, so
    # check it on EVERY small benchmark (budgeted to keep CI fast)
    for bench in small_benchmarks():
        lim = ExplorationLimits(max_schedules=300)
        new = DFSExplorer(bench.program, lim)
        new.schedule_sink = []
        new_stats = new.run()
        ref = ReferenceDFS(bench.program, lim)
        ref_stats = ref.run()
        assert new.schedule_sink == ref.schedule_log, bench.program.name
        nd, rd = new_stats.to_dict(), ref_stats.to_dict()
        nd.pop("elapsed")
        rd.pop("elapsed")
        assert nd == rd, bench.program.name


RANDOMIZED = [
    ("random", RandomWalkExplorer, ReferenceRandomWalk),
    ("pct", PCTExplorer, ReferencePCT),
]


@pytest.mark.parametrize("label,new_cls,ref_cls", RANDOMIZED,
                         ids=[r[0] for r in RANDOMIZED])
def test_randomized_explorers_match_fresh_executor_loops(label, new_cls,
                                                         ref_cls):
    lim = ExplorationLimits(max_schedules=30)
    for bench in small_benchmarks():
        for seed in range(3):
            new = new_cls(bench.program, lim, seed=seed).run().to_dict()
            ref = ref_cls(bench.program, lim, seed=seed).run().to_dict()
            new.pop("elapsed")
            ref.pop("elapsed")
            assert new == ref, (bench.program.name, seed)
