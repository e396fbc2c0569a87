"""Cell execution: the one function every campaign worker runs.

``execute_cell`` resolves the cell's benchmark from the suite registry
and funnels into :func:`repro.explore.controller.run_single` — the one
function that builds and runs an explorer — so a sharded campaign
produces bit-for-bit the statistics a serial run would.  The local
pool, the figure harnesses (through the campaign driver) and the
distributed worker (with its hard watchdog, ``hard_timeout=``) all
call it.

Failures are *data*, not exceptions: a worker never takes the pool down.
A crash inside an explorer (or an inequality violation under ``verify``)
comes back as a failed :class:`CellResult` carrying the traceback, and
the campaign driver decides whether that fails the run.

Frontier threading (see ``repro.explore.kernel``): a worker can start
a cell from a ``resume_state`` snapshot (a checkpointed partial, or
one shard of a split frontier), periodically checkpoints the in-flight
state to ``checkpoint_path`` through the explorer's control hook, and
returns the final snapshot of a budget-limited cell in
:attr:`CellResult.partial` so a later run with a laxer budget
continues instead of restarting.
"""

from __future__ import annotations

import threading
import traceback
from dataclasses import dataclass
from typing import Any, Callable, Dict, Optional, Tuple

from ..explore.base import ExplorationLimits, ExplorationStats
from ..explore.controller import (
    APPROXIMATE_EXPLORERS,
    run_single,
    supports_snapshot,
)
from ..suite import REGISTRY
from .cells import CampaignCell
from .partial import checkpoint_control, write_partial


@dataclass
class CellResult:
    """Outcome of one cell: statistics, or a captured failure."""

    cell: CampaignCell
    stats: Optional[ExplorationStats]
    ok: bool = True
    error: Optional[str] = None
    cached: bool = False  #: satisfied from a checkpoint, not re-executed
    #: final explorer snapshot of a budget-limited cell that
    #: checkpoints (a store's partial file, or the distributed
    #: worker's stream) when the strategy supports snapshots; lets a
    #: laxer-budget resume continue from the frontier.  Persisted as a
    #: partial file, not in the main store document.
    partial: Optional[Dict[str, Any]] = None
    #: shard index within a split cell (-1 = not a shard)
    shard: int = -1
    #: shard count of the split this result belongs to (0 = unsplit)
    num_shards: int = 0
    #: failure/quarantine forensics (distributed campaigns): status
    #: (``"failed"``/``"timed_out"``/``"quarantined"``), retry count,
    #: worker ids that attempted the cell, the last traceback, and the
    #: schedule depth of the last usable checkpoint.  ``None`` (and
    #: absent from the JSON form) for healthy cells, so the historical
    #: document shape is unchanged.
    diagnostics: Optional[Dict[str, Any]] = None

    @property
    def unexpected_findings(self) -> bool:
        """Did the explorer report an error the suite does not expect?

        Benchmarks annotated ``expect_error`` (deadlocks, assertion
        violations) are *supposed* to yield findings; anything else
        reporting errors is a red flag for the smoke campaign.
        """
        if self.stats is None or not self.stats.errors:
            return False
        bench = REGISTRY.get(self.cell.bench_id)
        return bench is None or bench.expect_error is None

    def to_dict(self) -> Dict[str, Any]:
        payload = {
            "bench_id": self.cell.bench_id,
            "explorer": self.cell.explorer,
            "seed": self.cell.seed,
            "ok": self.ok,
            "error": self.error,
            "stats": self.stats.to_dict() if self.stats is not None else None,
        }
        if self.num_shards:
            payload["shard"] = self.shard
            payload["num_shards"] = self.num_shards
        if self.diagnostics is not None:
            payload["diagnostics"] = dict(self.diagnostics)
        if self.cell.explorer in APPROXIMATE_EXPLORERS:
            # absent for exact explorers: their documents are unchanged
            payload["approximate"] = True
        return payload

    @classmethod
    def from_dict(cls, payload: Dict[str, Any]) -> "CellResult":
        stats = payload.get("stats")
        return cls(
            cell=CampaignCell(
                payload["bench_id"], payload["explorer"],
                payload.get("seed", 0),
            ),
            stats=(ExplorationStats.from_dict(stats)
                   if stats is not None else None),
            ok=payload.get("ok", True),
            error=payload.get("error"),
            shard=payload.get("shard", -1),
            num_shards=payload.get("num_shards", 0),
            diagnostics=payload.get("diagnostics"),
        )


def execute_cell(
    cell: CampaignCell,
    limits: Optional[ExplorationLimits] = None,
    verify: bool = True,
    resume_state: Optional[Dict[str, Any]] = None,
    checkpoint_path: Optional[str] = None,
    checkpoint_key: Optional[str] = None,
    checkpoint_interval: float = 2.0,
    shard: int = -1,
    num_shards: int = 0,
    checkpoint_fn: Optional[Callable[[Dict[str, Any]], None]] = None,
    control_fn: Optional[Callable[[Any], None]] = None,
    hard_timeout: Optional[float] = None,
) -> CellResult:
    """Run one cell to completion, trapping any failure.

    Per-cell budgets ride on ``limits``: ``max_schedules`` bounds the
    work, ``max_seconds`` is the per-cell (cooperative) timeout, and
    ``max_events_per_schedule`` bounds any single execution — so no cell
    can wedge a worker indefinitely.

    With ``resume_state`` the explorer restores a snapshot and
    continues (restored schedule/elapsed counts are charged against
    ``limits``).  With ``checkpoint_path`` the in-flight state is
    written there (atomic replace) at most every
    ``checkpoint_interval`` seconds, so an interrupted campaign resumes
    the cell from (almost) where it stopped; a budget-limited cell
    also writes its final snapshot there and returns it in
    :attr:`CellResult.partial`.  ``checkpoint_fn`` overrides the file
    sink with a custom one (the distributed worker streams checkpoints
    to the coordinator instead).  Without either sink nothing is
    snapshotted.

    The explorer takes one between-schedules hook
    (:meth:`repro.explore.base.Explorer.set_control`): ``control_fn``
    (heartbeats, steal commands, fault injection) runs first, then the
    rate-limited checkpoint (:func:`repro.campaign.partial
    .checkpoint_control`), so a steal lands before the snapshot.

    ``hard_timeout`` runs the cell under a hard wall-clock watchdog.
    ``max_seconds`` is cooperative — probed every 32 scheduling points
    — so a cell that wedges inside a single step (a pathological
    guest, a runaway object semantics bug) would hold its lease
    forever.  With the watchdog the cell runs in a daemon thread and,
    if it has not finished after ``hard_timeout`` seconds, comes back
    as ``timed_out`` (a failed :class:`CellResult` with
    ``diagnostics["status"] == "timed_out"``) instead of stalling or
    crashing the worker.  The overrunning thread cannot be killed
    (CPython has no thread cancellation); it is asked to stop
    cooperatively (:meth:`~repro.explore.base.Explorer.request_stop`)
    and abandoned as a daemon — it stops burning CPU at the next
    schedule boundary it ever reaches, and dies with the worker
    process.
    """
    limits = limits or ExplorationLimits()
    bench = REGISTRY.get(cell.bench_id)
    if bench is None:
        return CellResult(
            cell, None, ok=False,
            error=f"no suite benchmark with id {cell.bench_id}",
            shard=shard, num_shards=num_shards,
        )
    key = checkpoint_key if checkpoint_key is not None else cell.key
    if checkpoint_fn is None and checkpoint_path is not None:
        def checkpoint_fn(snapshot: Dict[str, Any]) -> None:
            write_partial(checkpoint_path, key, limits, snapshot)
    if not supports_snapshot(cell.explorer):
        checkpoint_fn = None
    checkpoint = (checkpoint_control(checkpoint_fn, checkpoint_interval)
                  if checkpoint_fn is not None else None)
    #: the live explorer, kept in reach for the final snapshot and
    #: for the watchdog's stop request
    box: Dict[str, Any] = {}

    def control(explorer) -> None:
        box["explorer"] = explorer
        if control_fn is not None:
            control_fn(explorer)
        if checkpoint is not None:
            checkpoint(explorer)

    def execute() -> CellResult:
        try:
            stats = run_single(
                bench.program, cell.explorer, limits, seed=cell.seed,
                verify=verify, resume_state=resume_state,
                control_fn=control,
            )
            result = CellResult(cell, stats, shard=shard,
                                num_shards=num_shards)
            explorer = box.get("explorer")
            if (stats.limit_hit and checkpoint_fn is not None
                    and explorer is not None):
                result.partial = explorer.snapshot()
                checkpoint_fn(result.partial)
            return result
        except Exception as exc:  # noqa: BLE001 - workers must not crash
            return CellResult(
                cell, None, ok=False,
                error=f"{type(exc).__name__}: {exc}\n"
                      f"{traceback.format_exc(limit=8)}",
                shard=shard, num_shards=num_shards,
            )

    if hard_timeout is None:
        return execute()

    def target() -> None:
        box["result"] = execute()

    thread = threading.Thread(target=target, daemon=True,
                              name=f"cell-{cell.key}")
    thread.start()
    thread.join(hard_timeout)
    if thread.is_alive():
        explorer = box.get("explorer")
        if explorer is not None:
            explorer.request_stop()
        return CellResult(
            cell, None, ok=False,
            error=(f"hard watchdog: cell still running after "
                   f"{hard_timeout:g}s"),
            diagnostics={
                "status": "timed_out",
                "hard_timeout": hard_timeout,
            },
        )
    result = box.get("result")
    if result is None:  # pragma: no cover - thread died abnormally
        return CellResult(cell, None, ok=False,
                          error="worker thread died without a result")
    return result


def _pool_entry(
    packed: Tuple[CampaignCell, Optional[ExplorationLimits], bool,
                  Optional[Dict[str, Any]], Optional[str], Optional[str],
                  int, int],
) -> CellResult:
    """Top-level (picklable) entry point for ``multiprocessing`` pools."""
    (cell, limits, verify, resume_state, checkpoint_path,
     checkpoint_key, shard, num_shards) = packed
    return execute_cell(
        cell, limits, verify,
        resume_state=resume_state,
        checkpoint_path=checkpoint_path,
        checkpoint_key=checkpoint_key,
        shard=shard,
        num_shards=num_shards,
    )
