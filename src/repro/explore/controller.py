"""Run-matrix helpers: run several explorers over several programs and
collect comparable statistics."""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Dict, Iterable, List, Optional, Sequence

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
    fast: Optional[bool] = None,
    resume_state: Optional[dict] = None,
    checkpoint_fn=None,
    checkpoint_interval: float = 2.0,
    control_fn=None,
    on_explorer=None,
    engine: Optional[str] = None,
) -> ExplorationStats:
    """Execute ONE (program, explorer, seed) cell.

    This is the single cell-execution function shared by every harness —
    the serial ``run_matrix``/``run_figure2``/``run_figure3`` loops and
    the parallel campaign workers all funnel through here, so serial and
    sharded runs produce bit-for-bit identical statistics (given
    deterministic budgets; a binding ``max_seconds`` wall-clock cap is
    inherently load-dependent).

    ``fast`` overrides the explorer's replay mode: ``True`` forces
    fast-replay executors, ``False`` forces the reference path, ``None``
    (default) keeps the strategy's own choice.  Both paths produce
    identical fingerprints, state hashes and schedule counts; the
    equivalence suite enforces this.

    ``engine`` pins the clock-engine backend (``"ref"``/``"native"``)
    for the cell's executors; ``None`` keeps the registry's auto pick.
    Both backends are byte-identical in observable behaviour.

    The frontier-kernel extensions (all optional, ignored by
    strategies without snapshot support):

    * ``resume_state`` — a ``snapshot()`` payload; the explorer
      restores it and continues with the identical remaining schedule
      set, its restored schedule/elapsed counts charged against
      ``limits``;
    * ``checkpoint_fn`` — called with a fresh snapshot at most every
      ``checkpoint_interval`` seconds between schedules (the campaign
      store threads this through for intra-cell ``--resume``);
    * ``control_fn`` — installed as the explorer's between-schedules
      control callback (``Explorer.set_control``); the distributed
      worker heartbeats its lease, answers steal commands and injects
      chaos faults through it;
    * ``on_explorer`` — receives the explorer instance after the run
      (the campaign worker grabs the final snapshot of budget-limited
      cells this way).
    """
    explorer = make_explorer(explorer_name, program, limits, seed,
                             engine=engine)
    if fast is not None:
        explorer.fast_replay = fast
    if resume_state is not None and hasattr(explorer, "restore"):
        explorer.restore(resume_state)
    if checkpoint_fn is not None and hasattr(explorer, "snapshot"):
        explorer.set_checkpoint(checkpoint_fn, checkpoint_interval)
    if control_fn is not None:
        explorer.set_control(control_fn)
    stats = explorer.run()
    if verify:
        stats.verify_inequality()
    if on_explorer is not None:
        on_explorer(explorer)
    return stats


def matrix_report(rows: Sequence["ComparisonRow"]) -> str:
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
class ComparisonRow:
    """Stats of all requested explorers for one program."""

    program_name: str
    by_explorer: Dict[str, ExplorationStats] = field(default_factory=dict)


def run_matrix(
    programs: Iterable[Program],
    explorer_names: Sequence[str],
    limits: Optional[ExplorationLimits] = None,
    verify: bool = True,
    progress: Optional[Callable[[str], None]] = None,
) -> List[ComparisonRow]:
    """Run each named explorer on each program.

    With ``verify`` (default), the paper's inequality chain is asserted
    for every run.
    """
    limits = limits or ExplorationLimits()
    rows: List[ComparisonRow] = []
    for program in programs:
        row = ComparisonRow(program.name)
        for name in explorer_names:
            stats = run_single(program, name, limits, verify=verify)
            row.by_explorer[name] = stats
            if progress is not None:
                progress(stats.summary())
        rows.append(row)
    return rows


def states_found(program: Program, explorer_name: str,
                 limits: Optional[ExplorationLimits] = None) -> frozenset:
    """The set of distinct terminal state hashes an explorer reaches —
    used by the soundness tests to compare against DFS ground truth."""
    limits = limits or ExplorationLimits()
    explorer = make_explorer(explorer_name, program, limits)
    explorer.run()
    return frozenset(explorer._state_hashes)
