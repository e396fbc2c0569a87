"""Experiment harnesses that regenerate the paper's evaluation.

* :func:`run_figure2` — DPOR over the suite; per benchmark, the number
  of terminal HBRs (x) and terminal lazy HBRs (y) within the schedule
  limit.  The paper found 33/79 benchmarks strictly below the diagonal
  and, among those, 80% of the unique HBRs redundant.
* :func:`run_figure3` — regular vs lazy HBR caching; per benchmark,
  the number of distinct terminal lazy HBRs each explored within the
  schedule limit.  The paper found 18/79 benchmarks where lazy caching
  explored more, by +84% across them.
* :func:`run_inequality_table` — the Section 3 chain
  ``#states <= #lazy HBRs <= #HBRs <= #schedules`` for every benchmark.

Each harness is a campaign: it builds the (benchmark × explorer)
cells, runs them with :func:`repro.campaign.runner.run_campaign`
(sharded across a process pool when ``jobs > 1``) and reads its rows
back from the cell results — Figures 2 and 3 through
:func:`figure2_rows_from_cells` and :func:`figure3_rows_from_cells`,
the same functions that put figure rows into a ``repro campaign
--out`` report.  Serial and parallel runs execute the same cell
function, so the rows are bit-for-bit identical — provided only
deterministic budgets bind: a binding ``seconds_per_benchmark``
wall-clock cap cuts exploration at a load-dependent point and is not
reproducible, serial *or* parallel.

The paper used a schedule limit of 100,000 on instrumented JVM
executions; the default here is lower because pure-Python execution is
slower, and every counted quantity grows monotonically with the limit
(so diagonal structure is preserved; ``tests/test_paper_claims.py``
checks the paper's Figure 2 and 3 claims at this default).
"""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass
from typing import Callable, Dict, List, Optional, Sequence

from ..campaign.aggregate import stats_by_cell
from ..campaign.cells import build_cells
from ..campaign.runner import run_campaign
from ..campaign.worker import CellResult
from ..explore.base import ExplorationLimits, ExplorationStats
from ..suite import REGISTRY, all_benchmarks
from ..suite.base import Benchmark
from .stats import ScatterPoint

DEFAULT_LIMIT = 2_000


@dataclass
class Figure2Row:
    bench_id: int
    name: str
    num_schedules: int
    num_hbrs: int
    num_lazy_hbrs: int
    num_states: int
    limit_hit: bool

    def as_point(self) -> ScatterPoint:
        return ScatterPoint(
            self.bench_id, self.name, self.num_hbrs, self.num_lazy_hbrs,
            self.limit_hit,
        )

    def to_dict(self) -> dict:
        return dataclasses.asdict(self)

    @classmethod
    def from_dict(cls, payload: dict) -> "Figure2Row":
        return cls(**payload)


@dataclass
class Figure3Row:
    bench_id: int
    name: str
    lazy_hbrs_regular_caching: int
    lazy_hbrs_lazy_caching: int
    schedules_regular: int
    schedules_lazy: int
    limit_hit: bool

    def as_point(self) -> ScatterPoint:
        return ScatterPoint(
            self.bench_id, self.name,
            self.lazy_hbrs_regular_caching, self.lazy_hbrs_lazy_caching,
            self.limit_hit,
        )

    def to_dict(self) -> dict:
        return dataclasses.asdict(self)

    @classmethod
    def from_dict(cls, payload: dict) -> "Figure3Row":
        return cls(**payload)


def _run_cells(
    benchmarks: Sequence[Benchmark],
    explorer_names: Sequence[str],
    schedule_limit: int,
    seconds: Optional[float],
    jobs: int,
    progress: Optional[Callable[[str], None]] = None,
    on_result: Optional[Callable[[CellResult], None]] = None,
) -> List[CellResult]:
    """Run each named explorer on each benchmark as one campaign (a
    benchmark listed twice runs once) and return the cell results.
    Cells cross process boundaries by benchmark id, so every benchmark
    must be the suite registry's."""
    for b in benchmarks:
        if REGISTRY.get(b.bench_id) is not b:
            raise ValueError(
                f"benchmark {b.bench_id} ({b.program.name}) is not the "
                f"suite registry's; the figure harnesses run suite "
                f"benchmarks only"
            )
    cells = build_cells([b.bench_id for b in benchmarks], explorer_names)
    campaign = run_campaign(
        cells, ExplorationLimits(max_schedules=schedule_limit,
                                 max_seconds=seconds),
        jobs=jobs, progress=progress, on_result=on_result,
    )
    failures = campaign.failures
    if failures:
        first = failures[0]
        raise RuntimeError(
            f"{len(failures)} cell(s) failed; first: "
            f"{first.cell.key}: {first.error}"
        )
    return campaign.results


def run_figure2(
    benchmarks: Optional[Sequence[Benchmark]] = None,
    schedule_limit: int = DEFAULT_LIMIT,
    seconds_per_benchmark: Optional[float] = None,
    progress: Optional[Callable[[str], None]] = None,
    jobs: int = 1,
) -> List[Figure2Row]:
    """DPOR with the regular HBR; count terminal HBRs vs lazy HBRs.
    One row per requested benchmark, in request order."""
    benchs = list(benchmarks) if benchmarks is not None else all_benchmarks()
    results = _run_cells(benchs, ["dpor"], schedule_limit,
                         seconds_per_benchmark, jobs, progress=progress)
    rows = {r.bench_id: r for r in figure2_rows_from_cells(results)}
    return [rows[b.bench_id] for b in benchs]


def _figure2_row(b: Benchmark, st: ExplorationStats) -> Figure2Row:
    return Figure2Row(
        b.bench_id, b.program.name, st.num_schedules, st.num_hbrs,
        st.num_lazy_hbrs, st.num_states, st.limit_hit,
    )


def run_figure3(
    benchmarks: Optional[Sequence[Benchmark]] = None,
    schedule_limit: int = DEFAULT_LIMIT,
    seconds_per_benchmark: Optional[float] = None,
    progress: Optional[Callable[[str], None]] = None,
    jobs: int = 1,
) -> List[Figure3Row]:
    """Regular vs lazy HBR caching; compare terminal lazy HBRs reached.
    One row per requested benchmark, in request order."""
    benchs = list(benchmarks) if benchmarks is not None else all_benchmarks()

    # progress pairs the two cells of a benchmark into one line, however
    # the pool interleaves them
    partial: Dict[int, Dict[str, ExplorationStats]] = {}

    def pair(result: CellResult) -> None:
        if not result.ok or result.stats is None:
            return
        got = partial.setdefault(result.cell.bench_id, {})
        got[result.cell.explorer] = result.stats
        if len(got) == 2:
            progress(
                f"{result.stats.program_name:<34} "
                f"caching={got['hbr-caching'].num_lazy_hbrs:<6} "
                f"lazy-caching={got['lazy-hbr-caching'].num_lazy_hbrs:<6}"
            )

    results = _run_cells(
        benchs, ["hbr-caching", "lazy-hbr-caching"], schedule_limit,
        seconds_per_benchmark, jobs,
        on_result=pair if progress is not None else None,
    )
    rows = {r.bench_id: r for r in figure3_rows_from_cells(results)}
    return [rows[b.bench_id] for b in benchs]


def _figure3_row(
    b: Benchmark, regular: ExplorationStats, lazy: ExplorationStats
) -> Figure3Row:
    return Figure3Row(
        b.bench_id, b.program.name,
        regular.num_lazy_hbrs, lazy.num_lazy_hbrs,
        regular.num_schedules, lazy.num_schedules,
        regular.limit_hit or lazy.limit_hit,
    )


@dataclass
class InequalityRow:
    bench_id: int
    name: str
    stats: ExplorationStats

    def to_dict(self) -> dict:
        return {
            "bench_id": self.bench_id,
            "name": self.name,
            "stats": self.stats.to_dict(),
        }

    @classmethod
    def from_dict(cls, payload: dict) -> "InequalityRow":
        return cls(
            payload["bench_id"], payload["name"],
            ExplorationStats.from_dict(payload["stats"]),
        )


def run_inequality_table(
    benchmarks: Optional[Sequence[Benchmark]] = None,
    schedule_limit: int = DEFAULT_LIMIT,
    seconds_per_benchmark: Optional[float] = None,
    jobs: int = 1,
) -> List[InequalityRow]:
    """The Section 3 inequality, measured (not assumed) per benchmark.
    One row per requested benchmark, in request order."""
    benchs = list(benchmarks) if benchmarks is not None else all_benchmarks()
    stats = stats_by_cell(_run_cells(benchs, ["dpor"], schedule_limit,
                                     seconds_per_benchmark, jobs))
    return [
        InequalityRow(b.bench_id, b.program.name,
                      stats[(b.bench_id, "dpor", 0)])
        for b in benchs
    ]


# ---------------------------------------------------------------------------
# Figure rows from raw campaign results (the harnesses above and
# `repro campaign --out` alike): any campaign whose cells cover the
# needed explorers can be re-read as figure data without re-running
# anything.

def figure2_rows_from_cells(
    results: Sequence[CellResult],
) -> List[Figure2Row]:
    """Figure 2 rows from a campaign's ``dpor`` (seed 0) cells."""
    rows = []
    for r in sorted(results, key=lambda r: r.cell):
        if (r.cell.explorer == "dpor" and r.cell.seed == 0 and r.ok
                and r.stats is not None):
            bench = REGISTRY.get(r.cell.bench_id)
            if bench is not None:
                rows.append(_figure2_row(bench, r.stats))
    return rows


def figure3_rows_from_cells(
    results: Sequence[CellResult],
) -> List[Figure3Row]:
    """Figure 3 rows from benchmarks with both caching cells present."""
    by_bench: Dict[int, Dict[str, ExplorationStats]] = {}
    for r in results:
        if (r.cell.explorer in ("hbr-caching", "lazy-hbr-caching")
                and r.cell.seed == 0 and r.ok and r.stats is not None):
            by_bench.setdefault(r.cell.bench_id, {})[r.cell.explorer] = \
                r.stats
    rows = []
    for bench_id in sorted(by_bench):
        got = by_bench[bench_id]
        bench = REGISTRY.get(bench_id)
        if bench is not None and len(got) == 2:
            rows.append(
                _figure3_row(
                    bench, got["hbr-caching"], got["lazy-hbr-caching"]
                )
            )
    return rows
