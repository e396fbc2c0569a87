"""Aggregate statistics over experiment results — the numbers quoted in
the paper's Section 3 (below-diagonal counts, redundancy percentages)."""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Sequence


@dataclass(frozen=True)
class ScatterPoint:
    """One benchmark's position on a log-log scatter plot."""

    bench_id: int
    name: str
    x: int
    y: int
    limit_hit: bool = False

    @property
    def below_diagonal(self) -> bool:
        return self.y < self.x


def below_diagonal(points: Sequence[ScatterPoint]) -> List[ScatterPoint]:
    """Benchmarks strictly below the y = x diagonal."""
    return [p for p in points if p.below_diagonal]


def redundancy_summary(points: Sequence[ScatterPoint]) -> Dict[str, float]:
    """Figure 2 aggregate: among below-diagonal benchmarks, how many of
    the unique HBRs (x) were redundant according to the lazy HBR (y)?

    The paper reports 33/79 benchmarks below the diagonal and 910,007
    (80%) of their unique HBRs redundant.
    """
    below = below_diagonal(points)
    total_x = sum(p.x for p in below)
    total_y = sum(p.y for p in below)
    redundant = total_x - total_y
    return {
        "num_benchmarks": float(len(points)),
        "num_below_diagonal": float(len(below)),
        "total_hbrs_below": float(total_x),
        "redundant_hbrs": float(redundant),
        "redundant_pct": 100.0 * redundant / total_x if total_x else 0.0,
    }


def caching_gain_summary(points: Sequence[ScatterPoint]) -> Dict[str, float]:
    """Figure 3 aggregate: benchmarks where lazy HBR caching (y) explored
    *more* lazy HBRs than regular HBR caching (x) within the budget.

    Note the orientation: in Figure 3 "below the diagonal" in the paper
    means lazy caching explored more (their y axis is lazy caching);
    here a gain is ``y > x``.  The paper reports 18/79 gaining
    benchmarks and +8,969 (84%) more lazy HBRs across them.
    """
    gaining = [p for p in points if p.y > x_safe(p)]
    base = sum(x_safe(p) for p in gaining)
    extra = sum(p.y - x_safe(p) for p in gaining)
    return {
        "num_benchmarks": float(len(points)),
        "num_gaining": float(len(gaining)),
        "base_lazy_hbrs": float(base),
        "extra_lazy_hbrs": float(extra),
        "extra_pct": 100.0 * extra / base if base else 0.0,
    }


def x_safe(p: ScatterPoint) -> int:
    return p.x if p.x > 0 else 0
