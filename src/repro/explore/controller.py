"""The standard explorers by name, and the one function that runs a
cell: build one named explorer over one program and explore it."""

from __future__ import annotations

from typing import Callable, Dict, Optional

from ..runtime.program import Program
from .base import ExplorationLimits, ExplorationStats, Explorer
from .bounded import IterativeContextBoundingExplorer, PreemptionBoundedExplorer
from .caching import HBRCachingExplorer
from .delay import DelayBoundedExplorer
from .dfs import DFSExplorer
from .dpor import DPORExplorer
from .lazy_dpor import LazyDPORExplorer
from .pct import PCTExplorer
from .random_walk import RandomWalkExplorer

#: factory: (program, limits, seed=0) -> Explorer.  Deterministic
#: strategies ignore the seed; the randomized ones (``random``, ``pct``)
#: thread it into their RNG so campaign shards with different seeds do
#: genuinely different work.
ExplorerFactory = Callable[..., Explorer]

STANDARD_EXPLORERS: Dict[str, ExplorerFactory] = {
    "dfs": lambda prog, lim, seed=0: DFSExplorer(prog, lim),
    "dpor": lambda prog, lim, seed=0: DPORExplorer(prog, lim),
    "dpor-nosleep":
        lambda prog, lim, seed=0: DPORExplorer(prog, lim, sleep_sets=False),
    "hbr-caching":
        lambda prog, lim, seed=0: HBRCachingExplorer(prog, lim, lazy=False),
    "lazy-hbr-caching":
        lambda prog, lim, seed=0: HBRCachingExplorer(prog, lim, lazy=True),
    "lazy-dpor": lambda prog, lim, seed=0: LazyDPORExplorer(prog, lim),
    "random": lambda prog, lim, seed=0: RandomWalkExplorer(prog, lim, seed=seed),
    "pct": lambda prog, lim, seed=0: PCTExplorer(prog, lim, seed=seed),
    "preempt-bounded":
        lambda prog, lim, seed=0: PreemptionBoundedExplorer(prog, lim),
    "iterative-cb":
        lambda prog, lim, seed=0: IterativeContextBoundingExplorer(prog, lim),
    "delay-bounded":
        lambda prog, lim, seed=0: DelayBoundedExplorer(prog, lim),
}

#: strategies whose outcome depends on the seed; only these fan out
#: into multiple cells when a campaign requests ``seeds > 1``.
SEEDED_EXPLORERS = frozenset({"random", "pct"})

#: strategies whose results are approximate: a lazy-fingerprint cache
#: hit prunes race analysis a suffix still needed, so a run can miss
#: states (see ``repro.explore.lazy_dpor``).  Check results and
#: campaign cells of these strategies say so.
APPROXIMATE_EXPLORERS = frozenset({"lazy-dpor"})

#: kernel-based strategies whose frontier can be sharded with
#: ``Frontier.split`` (see ``repro.explore.kernel``).  DPOR variants are
#: excluded: their backtrack sets grow dynamically, so a static split of
#: the stack would drop required branches; the randomized walkers have
#: no frontier at all.
SPLITTABLE_EXPLORERS = frozenset({
    "dfs", "preempt-bounded", "iterative-cb", "delay-bounded",
    "hbr-caching", "lazy-hbr-caching",
})

#: strategies supporting intra-cell checkpoint/resume via
#: ``snapshot()``/``restore()`` — the kernel family plus the DPOR
#: variants (whose stack serializes through the work-item interface).
RESUMABLE_EXPLORERS = SPLITTABLE_EXPLORERS | frozenset({
    "dpor", "dpor-nosleep", "lazy-dpor",
})


def supports_split(name: str) -> bool:
    """Can cells of this strategy be sharded via ``Frontier.split``?"""
    return name in SPLITTABLE_EXPLORERS


def supports_snapshot(name: str) -> bool:
    """Can cells of this strategy checkpoint/resume mid-exploration?"""
    return name in RESUMABLE_EXPLORERS


def require_explorer(name: str) -> None:
    """Raise ``KeyError`` (with the canonical message) for a strategy
    name not in :data:`STANDARD_EXPLORERS`."""
    if name not in STANDARD_EXPLORERS:
        raise KeyError(
            f"unknown explorer {name!r}; available: "
            f"{sorted(STANDARD_EXPLORERS)}"
        )


def make_explorer(
    name: str,
    program: Program,
    limits: Optional[ExplorationLimits] = None,
    seed: int = 0,
    engine: Optional[str] = None,
) -> Explorer:
    """Instantiate a standard explorer by name (seed-aware).

    ``engine`` pins the clock-engine backend for every executor the
    explorer builds (``"ref"``/``"native"``; ``None`` keeps the
    registry's auto pick — see :mod:`repro.core.engines`).
    """
    require_explorer(name)
    explorer = STANDARD_EXPLORERS[name](program, limits or
                                        ExplorationLimits(), seed)
    if engine is not None:
        explorer.engine = engine
    return explorer


def run_single(
    program: Program,
    explorer_name: str,
    limits: Optional[ExplorationLimits] = None,
    seed: int = 0,
    verify: bool = True,
    resume_state: Optional[dict] = None,
    control_fn: Optional[Callable[[Explorer], None]] = None,
    engine: Optional[str] = None,
) -> ExplorationStats:
    """Execute ONE (program, explorer, seed) cell.

    This is the one function that builds and runs a cell's explorer:
    ``repro explore``, :func:`repro.check`, the shim equivalence report
    and every campaign cell (:func:`repro.campaign.worker.execute_cell`,
    which the figure harnesses reach through
    :func:`repro.campaign.runner.run_campaign`) funnel through here, so
    serial and sharded runs produce bit-for-bit identical statistics
    (given deterministic budgets; a binding ``max_seconds`` wall-clock
    cap is inherently load-dependent).

    ``engine`` pins the clock-engine backend (``"ref"``/``"native"``)
    for the cell's executors; ``None`` keeps the registry's auto pick.
    Both backends are byte-identical in observable behaviour.

    * ``resume_state`` — a ``snapshot()`` payload (strategies with
      snapshot support only); the explorer restores it and continues
      with the identical remaining schedule set, its restored
      schedule/elapsed counts charged against ``limits``;
    * ``control_fn`` — installed as the explorer's between-schedules
      callback (:meth:`Explorer.set_control`); campaign cells
      checkpoint through it, and the distributed worker heartbeats its
      lease, answers steal commands and injects chaos faults.
    """
    explorer = make_explorer(explorer_name, program, limits, seed,
                             engine=engine)
    if resume_state is not None and hasattr(explorer, "restore"):
        explorer.restore(resume_state)
    if control_fn is not None:
        explorer.set_control(control_fn)
    stats = explorer.run()
    if verify:
        stats.verify_inequality()
    return stats
