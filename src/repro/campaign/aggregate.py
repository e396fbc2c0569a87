"""Deterministic aggregation of campaign results.

Completion order under a pool is nondeterministic; everything here
re-keys results by ``(bench_id, explorer, seed)`` so the aggregated
rows — and therefore the rendered reports — are identical however the
cells were scheduled.  Figure-specific aggregation (``Figure2Row``,
``Figure3Row``) lives next to those row types in
:mod:`repro.analysis.runner`; this module covers the explorer-matrix
(:func:`comparison_rows`, rendered by :func:`matrix_report` — the
table ``repro campaign`` prints) and raw-JSON views that do not depend
on the analysis layer.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Any, Dict, List, Optional, Sequence

from ..explore.base import ExplorationLimits, ExplorationStats
from ..suite import REGISTRY
from .runner import CampaignResult
from .worker import CellResult

if TYPE_CHECKING:  # circular at runtime: analysis.runner imports campaign
    from ..analysis.runner import Figure2Row, Figure3Row


def merge_shard_results(
    seed_result: CellResult,
    shard_results: Sequence[CellResult],
) -> CellResult:
    """Union-merge one split cell back into a logical cell result.

    The merge is deterministic — seed first, then shards in index
    order — and operates on the *set* payloads of
    :class:`ExplorationStats` (fingerprints, state hashes, error
    kinds), so for exhaustively explored cells the merged distinct
    counts are exactly those of the equivalent unsplit run, however
    the shards were scheduled.  Additive counters (schedules, events,
    elapsed) sum across seed + shards.

    Any failed shard fails the logical cell (its error is surfaced);
    the merged cell is ``exhausted`` only if every shard exhausted its
    sub-frontier and no run of the seed or a shard was truncated.
    """
    cell = seed_result.cell
    failures = [r for r in ([seed_result] + list(shard_results))
                if not r.ok or r.stats is None]
    if failures:
        first = failures[0]
        return CellResult(
            cell, None, ok=False,
            error=(f"shard {first.shard}/{first.num_shards} failed: "
                   f"{first.error}" if first.num_shards else first.error),
        )
    merged = ExplorationStats.from_dict(seed_result.stats.to_dict())
    # the seed stopped early by design; exhaustion of the logical cell
    # is decided by the shards (AND across them) and by the truncated
    # runs, the seed's included, which ExplorationStats.merge counts
    merged.exhausted = True
    merged.limit_hit = False
    for shard in sorted(shard_results, key=lambda r: r.shard):
        merged.merge(shard.stats)
    merged.extra["split_shards"] = len(shard_results)
    merged.extra["split_seed_schedules"] = seed_result.stats.num_schedules
    return CellResult(cell, merged)


def merge_stolen_results(
    parent_result: CellResult,
    shard_results: Sequence[CellResult],
) -> CellResult:
    """Union-merge work-stealing shards back into their logical cell.

    The distributed coordinator's counterpart of
    :func:`merge_shard_results`.  The parent attempt's statistics are
    *cumulative over the whole cell minus the stolen subtrees* (the
    victim keeps exploring after the steal), and each shard covers
    exactly its stolen subtrees — the frontier partition guarantees
    disjointness — so summing counters and unioning the fingerprint
    sets reproduces the serial run for count-exact strategies.  Merge
    order is deterministic: parent first, then shards in creation
    order (the order the coordinator recorded them).

    Provenance goes under ``dist_``-prefixed ``extra`` keys, which the
    canonical report view strips (see :func:`canonical_report_dict`).
    """
    cell = parent_result.cell
    failures = [r for r in ([parent_result] + list(shard_results))
                if not r.ok or r.stats is None]
    if failures:
        first = failures[0]
        return CellResult(cell, None, ok=False, error=first.error,
                          diagnostics=first.diagnostics)
    merged = ExplorationStats.from_dict(parent_result.stats.to_dict())
    for shard in shard_results:
        merged.merge(shard.stats)
    merged.extra["dist_stolen_shards"] = len(shard_results)
    return CellResult(cell, merged)


#: summary fields that record execution provenance (how the campaign
#: ran), not exploration results (what it computed)
_PROVENANCE_SUMMARY_FIELDS = ("jobs", "elapsed", "num_executed",
                              "num_cached")


def canonical_report_dict(report: Dict[str, Any]) -> Dict[str, Any]:
    """The execution-invariant view of a campaign report document.

    Two campaigns over the same cells with the same limits — serial,
    pooled, or distributed with workers dying mid-cell — must agree on
    this view *byte for byte* once JSON-serialized with sorted keys.
    It strips exactly the provenance that legitimately varies with how
    (not what) the campaign computed: wall-clock ``elapsed``, the
    executed/cached split (a resumed campaign re-executes fewer
    cells), worker counts, the ``campaign`` metadata block, and
    ``dist_``-prefixed ``extra`` keys (stolen-shard bookkeeping).
    """
    out = {k: v for k, v in report.items() if k != "campaign"}
    summary = report.get("summary")
    if isinstance(summary, dict):
        out["summary"] = {k: v for k, v in summary.items()
                          if k not in _PROVENANCE_SUMMARY_FIELDS}
    cells = report.get("cells")
    if isinstance(cells, list):
        out["cells"] = [_canonical_cell(c) for c in cells]
    return out


def _canonical_cell(cell: Any) -> Any:
    if not isinstance(cell, dict):
        return cell
    out = dict(cell)
    stats = cell.get("stats")
    if isinstance(stats, dict):
        stats = {k: v for k, v in stats.items() if k != "elapsed"}
        extra = stats.get("extra")
        if isinstance(extra, dict):
            stats["extra"] = {k: v for k, v in extra.items()
                              if not k.startswith("dist_")}
        out["stats"] = stats
    return out


def stats_by_cell(
    results: Sequence[CellResult],
) -> Dict[tuple, ExplorationStats]:
    """``(bench_id, explorer, seed) -> stats`` for completed cells."""
    return {
        (r.cell.bench_id, r.cell.explorer, r.cell.seed): r.stats
        for r in results
        if r.ok and r.stats is not None
    }


@dataclass
class ComparisonRow:
    """Stats of all requested explorers for one program."""

    program_name: str
    by_explorer: Dict[str, ExplorationStats] = field(default_factory=dict)


def comparison_rows(results: Sequence[CellResult]) -> List[ComparisonRow]:
    """Re-assemble campaign cells into the rows ``matrix_report``
    renders: one row per benchmark (ascending id), explorers in cell
    order, multi-seed cells suffixed ``name#seed``."""
    by_bench: Dict[int, ComparisonRow] = {}
    for r in sorted(results, key=lambda r: r.cell):
        if not r.ok or r.stats is None:
            continue
        row = by_bench.get(r.cell.bench_id)
        if row is None:
            bench = REGISTRY.get(r.cell.bench_id)
            name = (bench.program.name if bench is not None
                    else r.stats.program_name)
            row = by_bench.setdefault(
                r.cell.bench_id, ComparisonRow(name)
            )
        row.by_explorer[r.cell.label] = r.stats
    return [by_bench[bid] for bid in sorted(by_bench)]


def matrix_report(rows: Sequence[ComparisonRow]) -> str:
    """Markdown table comparing all explorers over all programs: one row
    per (program, explorer) with the headline counts."""
    out = [
        "| program | explorer | schedules | #HBRs | #lazy HBRs | #states "
        "| errors | status |",
        "|---|---|---:|---:|---:|---:|---:|:--|",
    ]
    for row in rows:
        for name, stats in row.by_explorer.items():
            status = "limit" if stats.limit_hit else (
                "exhausted" if stats.exhausted else "done"
            )
            out.append(
                f"| {row.program_name} | {name} | {stats.num_schedules} | "
                f"{stats.num_hbrs} | {stats.num_lazy_hbrs} | "
                f"{stats.num_states} | {len(stats.errors)} | {status} |"
            )
    return "\n".join(out)


@dataclass
class CampaignSummary:
    """Aggregate counters of one campaign (the report's ``summary``)."""

    num_cells: int = 0
    num_executed: int = 0
    num_cached: int = 0
    num_failed: int = 0
    num_unexpected: int = 0
    total_schedules: int = 0
    total_events: int = 0
    jobs: int = 1
    elapsed: float = 0.0

    def to_dict(self) -> Dict[str, Any]:
        return {
            "num_cells": self.num_cells,
            "num_executed": self.num_executed,
            "num_cached": self.num_cached,
            "num_failed": self.num_failed,
            "num_unexpected": self.num_unexpected,
            "total_schedules": self.total_schedules,
            "total_events": self.total_events,
            "jobs": self.jobs,
            "elapsed": self.elapsed,
        }

    @classmethod
    def from_dict(cls, payload: Dict[str, Any]) -> "CampaignSummary":
        return cls(**payload)

    @classmethod
    def from_campaign(cls, campaign: CampaignResult) -> "CampaignSummary":
        return cls(
            num_cells=len(campaign.results),
            num_executed=campaign.num_executed,
            num_cached=campaign.num_cached,
            num_failed=len(campaign.failures),
            num_unexpected=len(campaign.unexpected),
            total_schedules=sum(
                r.stats.num_schedules for r in campaign.results
                if r.stats is not None
            ),
            total_events=sum(
                r.stats.num_events for r in campaign.results
                if r.stats is not None
            ),
            jobs=campaign.jobs,
            elapsed=campaign.elapsed,
        )


@dataclass
class CampaignReport:
    """The ``--out`` artifact, typed: summary + cells (+ optional limits,
    campaign metadata and re-derived figure rows).

    ``to_dict``/``from_dict`` round-trip losslessly and produce exactly
    the historical JSON document shape, so existing report consumers
    keep working unchanged.
    """

    KIND = "repro-campaign-report"
    VERSION = 1

    summary: CampaignSummary
    cells: List[CellResult] = field(default_factory=list)
    limits: Optional[ExplorationLimits] = None
    campaign: Optional[Dict[str, Any]] = None
    figure2: Optional[List["Figure2Row"]] = None
    figure3: Optional[List["Figure3Row"]] = None

    def to_dict(self) -> Dict[str, Any]:
        report: Dict[str, Any] = {
            "kind": self.KIND,
            "version": self.VERSION,
            "summary": self.summary.to_dict(),
            "cells": [r.to_dict() for r in self.cells],
        }
        if self.limits is not None:
            report["limits"] = {
                "max_schedules": self.limits.max_schedules,
                "max_seconds": self.limits.max_seconds,
                "max_events_per_schedule":
                    self.limits.max_events_per_schedule,
            }
        if self.campaign:
            report["campaign"] = dict(self.campaign)
        if self.figure2:
            report["figure2"] = [r.to_dict() for r in self.figure2]
        if self.figure3:
            report["figure3"] = [r.to_dict() for r in self.figure3]
        return report

    @classmethod
    def from_dict(cls, payload: Dict[str, Any]) -> "CampaignReport":
        from ..analysis.runner import Figure2Row, Figure3Row
        kind = payload.get("kind")
        if kind != cls.KIND:
            raise ValueError(f"not a campaign report: kind={kind!r}")
        version = payload.get("version")
        if version != cls.VERSION:
            raise ValueError(f"unsupported report version {version!r}")
        limits = None
        if "limits" in payload:
            lim = payload["limits"]
            limits = ExplorationLimits(
                max_schedules=lim["max_schedules"],
                max_seconds=lim["max_seconds"],
                max_events_per_schedule=lim["max_events_per_schedule"],
            )
        return cls(
            summary=CampaignSummary.from_dict(payload["summary"]),
            cells=[CellResult.from_dict(c) for c in payload["cells"]],
            limits=limits,
            campaign=payload.get("campaign"),
            figure2=([Figure2Row.from_dict(r) for r in payload["figure2"]]
                     if "figure2" in payload else None),
            figure3=([Figure3Row.from_dict(r) for r in payload["figure3"]]
                     if "figure3" in payload else None),
        )


def campaign_report(
    campaign: CampaignResult,
    limits: Optional[ExplorationLimits] = None,
    meta: Optional[Dict[str, Any]] = None,
    figure2: Optional[List["Figure2Row"]] = None,
    figure3: Optional[List["Figure3Row"]] = None,
) -> CampaignReport:
    """Typed campaign report (serialise with ``.to_dict()``)."""
    return CampaignReport(
        summary=CampaignSummary.from_campaign(campaign),
        cells=list(campaign.results),
        limits=limits,
        campaign=dict(meta) if meta else None,
        figure2=figure2 or None,
        figure3=figure3 or None,
    )
