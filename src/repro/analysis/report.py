"""Markdown reports of the paper's Figures 2 and 3 and the Section 3
inequality table (what ``repro figure2``, ``figure3`` and
``inequality`` print)."""

from __future__ import annotations

from typing import List, Sequence

from .runner import Figure2Row, Figure3Row, InequalityRow
from .scatter import render_scatter
from .stats import caching_gain_summary, redundancy_summary


def figure2_report(rows: Sequence[Figure2Row], schedule_limit: int) -> str:
    points = [r.as_point() for r in rows]
    summary = redundancy_summary(points)
    out: List[str] = []
    out.append("## Figure 2 — #HBRs vs #lazy HBRs under DPOR")
    out.append("")
    out.append(f"Schedule limit per benchmark: {schedule_limit:,} "
               "(paper: 100,000).")
    out.append("")
    out.append("```")
    out.append(render_scatter(points, "#HBRs", "#lazy HBRs"))
    out.append("```")
    out.append("")
    out.append(
        f"- benchmarks below the diagonal: "
        f"**{int(summary['num_below_diagonal'])} / {len(rows)}** "
        f"(paper: 33 / 79)"
    )
    out.append(
        f"- redundant HBRs across those benchmarks: "
        f"**{int(summary['redundant_hbrs']):,} "
        f"({summary['redundant_pct']:.0f}%)** (paper: 910,007 (80%))"
    )
    out.append("")
    out.append("| id | benchmark | schedules | #HBRs | #lazy HBRs | #states | limit |")
    out.append("|---:|---|---:|---:|---:|---:|:--|")
    for r in rows:
        out.append(
            f"| {r.bench_id} | {r.name} | {r.num_schedules} | "
            f"{r.num_hbrs} | {r.num_lazy_hbrs} | {r.num_states} | "
            f"{'hit' if r.limit_hit else 'done'} |"
        )
    return "\n".join(out)


def figure3_report(rows: Sequence[Figure3Row], schedule_limit: int) -> str:
    points = [r.as_point() for r in rows]
    summary = caching_gain_summary(points)
    out: List[str] = []
    out.append("## Figure 3 — lazy HBRs explored: HBR caching vs lazy HBR caching")
    out.append("")
    out.append(f"Schedule limit per benchmark: {schedule_limit:,} "
               "(paper: 100,000).")
    out.append("")
    out.append("```")
    out.append(render_scatter(
        points, "HBR caching (#lazy HBRs)", "lazy HBR caching (#lazy HBRs)"
    ))
    out.append("```")
    out.append("")
    out.append(
        f"- benchmarks where lazy caching explored more lazy HBRs: "
        f"**{int(summary['num_gaining'])} / {len(rows)}** (paper: 18 / 79)"
    )
    out.append(
        f"- extra terminal lazy HBRs across those: "
        f"**{int(summary['extra_lazy_hbrs']):,} "
        f"({summary['extra_pct']:.0f}%)** (paper: 8,969 (84%))"
    )
    out.append("")
    out.append("| id | benchmark | HBR caching | lazy HBR caching | limit |")
    out.append("|---:|---|---:|---:|:--|")
    for r in rows:
        out.append(
            f"| {r.bench_id} | {r.name} | {r.lazy_hbrs_regular_caching} | "
            f"{r.lazy_hbrs_lazy_caching} | "
            f"{'hit' if r.limit_hit else 'done'} |"
        )
    return "\n".join(out)


def inequality_report(rows: Sequence[InequalityRow]) -> str:
    out: List[str] = []
    out.append("## Section 3 inequality — #states <= #lazy <= #HBRs <= #schedules")
    out.append("")
    out.append("| id | benchmark | #states | #lazy HBRs | #HBRs | #schedules | holds |")
    out.append("|---:|---|---:|---:|---:|---:|:--|")
    violations = 0
    for r in rows:
        s = r.stats
        ok = (s.num_states <= s.num_lazy_hbrs <= s.num_hbrs
              <= s.num_schedules)
        violations += 0 if ok else 1
        out.append(
            f"| {r.bench_id} | {r.name} | {s.num_states} | "
            f"{s.num_lazy_hbrs} | {s.num_hbrs} | {s.num_schedules} | "
            f"{'yes' if ok else '**NO**'} |"
        )
    out.append("")
    out.append(f"Violations: **{violations}** (must be 0).")
    return "\n".join(out)
