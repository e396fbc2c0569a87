"""Exploration strategies for systematic concurrency testing."""

from .base import (
    DEFAULT_SCHEDULE_LIMIT,
    ErrorFinding,
    ExplorationLimits,
    ExplorationStats,
    Explorer,
)
from .bounded import (
    IterativeContextBoundingExplorer,
    PreemptionBoundedExplorer,
)
from .caching import HBRCachingExplorer
from .controller import (
    RESUMABLE_EXPLORERS,
    SEEDED_EXPLORERS,
    SPLITTABLE_EXPLORERS,
    STANDARD_EXPLORERS,
    make_explorer,
    run_single,
    supports_snapshot,
    supports_split,
)
from .delay import DelayBoundedExplorer
from .dfs import DFSExplorer
from .dpor import DPORExplorer
from .frontier import Frontier, WorkItem
from .kernel import Expansion, KernelExplorer, Strategy
from .lazy_dpor import LazyDPORExplorer
from .minimize import MinimizationResult, minimize_schedule
from .pct import PCTExplorer
from .random_walk import RandomWalkExplorer

__all__ = [
    "MinimizationResult",
    "minimize_schedule",
    "DEFAULT_SCHEDULE_LIMIT",
    "Expansion",
    "Frontier",
    "KernelExplorer",
    "RESUMABLE_EXPLORERS",
    "SEEDED_EXPLORERS",
    "SPLITTABLE_EXPLORERS",
    "STANDARD_EXPLORERS",
    "Strategy",
    "WorkItem",
    "supports_snapshot",
    "supports_split",
    "make_explorer",
    "run_single",
    "DFSExplorer",
    "DelayBoundedExplorer",
    "DPORExplorer",
    "ErrorFinding",
    "ExplorationLimits",
    "ExplorationStats",
    "Explorer",
    "HBRCachingExplorer",
    "IterativeContextBoundingExplorer",
    "LazyDPORExplorer",
    "PCTExplorer",
    "PreemptionBoundedExplorer",
    "RandomWalkExplorer",
]
