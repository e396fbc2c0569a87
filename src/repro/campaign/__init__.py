"""Parallel campaign runner: shard the explorer × benchmark × seed
matrix across a process pool — or a fleet of distributed workers.

The paper's evaluation is a big run-matrix; this subsystem makes it
wall-clock-bound by core count instead of single-thread speed:

* :mod:`~repro.campaign.cells` — the deterministic work-list;
* :mod:`~repro.campaign.worker` — one-cell execution, through
  :func:`repro.explore.controller.run_single`;
* :mod:`~repro.campaign.store` — resumable JSON checkpointing;
* :mod:`~repro.campaign.runner` — the ``multiprocessing`` driver;
* :mod:`~repro.campaign.aggregate` — order-independent aggregation;
* :mod:`~repro.campaign.distributed` — fault-tolerant
  coordinator/worker campaigns (leases, heartbeats, work stealing,
  poison quarantine) over TCP or a file queue;
* :mod:`~repro.campaign.chaos` — deterministic fault injection for
  the robustness tests and CI.

CLI: ``python -m repro campaign --jobs 8`` (see ``--help``), or
``--coordinator`` / ``--worker`` for the distributed mode.
"""

from .aggregate import (
    CampaignReport,
    CampaignSummary,
    ComparisonRow,
    campaign_report,
    canonical_report_dict,
    comparison_rows,
    matrix_report,
    merge_shard_results,
    merge_stolen_results,
    stats_by_cell,
)
from .cells import CampaignCell, build_cells
from .chaos import ChaosError, ChaosPlan, ChaosRule
from .runner import CampaignResult, run_campaign
from .split import SplitPlan, prepare_split, shard_key
from .store import ResultStore
from .worker import CellResult, execute_cell

__all__ = [
    "CampaignCell",
    "CampaignReport",
    "CampaignResult",
    "CampaignSummary",
    "CellResult",
    "ChaosError",
    "ChaosPlan",
    "ChaosRule",
    "ComparisonRow",
    "ResultStore",
    "SplitPlan",
    "build_cells",
    "campaign_report",
    "canonical_report_dict",
    "comparison_rows",
    "execute_cell",
    "matrix_report",
    "merge_shard_results",
    "merge_stolen_results",
    "prepare_split",
    "run_campaign",
    "shard_key",
    "stats_by_cell",
]
