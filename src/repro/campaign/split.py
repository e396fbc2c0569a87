"""Intra-cell sharding: split one cell's frontier across workers.

The PR-1 campaign shards only across whole ``explorer × benchmark ×
seed`` cells, so one big DFS cell is an unsplittable straggler.  For
kernel strategies (``repro.explore.SPLITTABLE_EXPLORERS``) a cell's
in-progress state is an explicit :class:`~repro.explore.frontier
.Frontier` of disjoint subtree roots, so the driver can:

1. **seed** — run the cell deterministically for a handful of
   schedules (``run_seed``) until the frontier holds at least ``k``
   work items;
2. **split** — ``Frontier.split(k)`` deals the items into ``k``
   disjoint, exhaustive sub-frontiers;
3. **fan out** — each shard runs on a worker as a restored snapshot
   with zeroed statistics (sharing the seed run's strategy state, e.g.
   the HBR cache built so far);
4. **merge** — :func:`repro.campaign.aggregate.merge_shard_results`
   union-merges seed + shard statistics (fingerprint/state/error
   *sets*, not just counts) into the statistics of the logical cell.

Seeding is deterministic and cheap, so a resumed campaign re-derives
identical shard states and completed shards are served from the
checkpoint store.

Budget note: each shard receives the full per-cell ``limits``; a split
cell may therefore execute up to ``k × max_schedules`` schedules.
Splitting targets *exhaustible* cells, where the merged fingerprint,
state and error sets are exactly those of the unsplit run (enforced by
tests); for budget-truncated cells the shards cover more ground than
one serial budget would, which is reported, not hidden
(``extra["split_shards"]``).
"""

from __future__ import annotations

import traceback
from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional

from ..explore.base import ExplorationLimits
from ..explore.controller import make_explorer, supports_split
from ..explore.kernel import KernelExplorer
from ..suite import REGISTRY
from .cells import CampaignCell
from .worker import CellResult

#: schedules the driver-side seed run may spend growing the frontier
DEFAULT_SEED_SCHEDULES = 256

#: target frontier items per shard before splitting; more items per
#: shard smooths the exponential skew of subtree sizes under
#: round-robin dealing
SEED_ITEMS_PER_SHARD = 16


@dataclass
class SplitPlan:
    """Outcome of the seed phase for one splittable cell."""

    cell: CampaignCell
    num_shards: int
    #: seed-phase statistics (a real, verified exploration prefix) —
    #: or the complete/failed result when no sharding is needed
    seed_result: CellResult = None  # type: ignore[assignment]
    #: one restore() payload per shard; empty when ``completed``
    shard_states: List[Dict[str, Any]] = field(default_factory=list)
    #: the seed run finished (or failed) the cell outright
    completed: bool = False


def shard_key(cell: CampaignCell, index: int, num_shards: int) -> str:
    """Store key for one shard of a split cell."""
    return f"{cell.key}@{index}/{num_shards}"


def prepare_split(
    cell: CampaignCell,
    limits: Optional[ExplorationLimits],
    num_shards: int,
    verify: bool = True,
    seed_schedules: int = DEFAULT_SEED_SCHEDULES,
) -> SplitPlan:
    """Seed one cell and split its frontier into ``num_shards``.

    Deterministic: the same cell under the same limits always yields
    the same seed statistics and shard states.  Small cells that
    exhaust during seeding come back ``completed`` with the full
    result; failures are captured as failed results, mirroring
    :func:`repro.campaign.worker.execute_cell`.
    """
    if num_shards < 2:
        raise ValueError(f"split requires >= 2 shards, got {num_shards}")
    if not supports_split(cell.explorer):
        raise ValueError(
            f"explorer {cell.explorer!r} does not support frontier "
            f"splitting"
        )
    limits = limits or ExplorationLimits()
    bench = REGISTRY.get(cell.bench_id)
    if bench is None:
        return SplitPlan(
            cell, num_shards, completed=True,
            seed_result=CellResult(
                cell, None, ok=False,
                error=f"no suite benchmark with id {cell.bench_id}",
            ),
        )
    try:
        explorer = make_explorer(cell.explorer, bench.program, limits,
                                 cell.seed)
        assert isinstance(explorer, KernelExplorer)
        seed_stats = explorer.run_seed(
            min_items=num_shards * SEED_ITEMS_PER_SHARD,
            max_schedules=seed_schedules,
        )
        if verify:
            seed_stats.verify_inequality()
        if not explorer.frontier:
            # the whole cell fit into the seed budget: nothing to split
            return SplitPlan(
                cell, num_shards, completed=True,
                seed_result=CellResult(cell, seed_stats),
            )
        return SplitPlan(
            cell, num_shards,
            seed_result=CellResult(cell, seed_stats),
            shard_states=explorer.shard_states(
                explorer.frontier.split(num_shards)),
        )
    except Exception as exc:  # noqa: BLE001 - mirror execute_cell
        return SplitPlan(
            cell, num_shards, completed=True,
            seed_result=CellResult(
                cell, None, ok=False,
                error=f"{type(exc).__name__}: {exc}\n"
                      f"{traceback.format_exc(limit=8)}",
            ),
        )
