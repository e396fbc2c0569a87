"""The campaign coordinator: a crash-safe lease-based work queue.

The coordinator owns the campaign work-list and *only* orchestrates —
all exploration happens in workers (which funnel into the same
``execute_cell`` as serial campaigns, so a distributed campaign merges
to the identical report).  It is written as a synchronous state
machine — :meth:`Coordinator.handle` maps one worker message to one
reply dict, with no I/O — pumped by :meth:`Coordinator.run` over a
:class:`~.transport.CoordinatorServer`.  Tests drive ``handle``
directly with hand-built messages and a
:class:`~repro.clock.ManualClock`.

Lease lifecycle of a task (a whole cell, or a stolen frontier shard)::

    QUEUED ──request──▶ LEASED(worker, deadline)
      ▲                     │ heartbeat/checkpoint: deadline renewed
      │ expiry / failure    │
      ├─────────────────────┤  attempt += 1, resume from last
      │  retries exhausted  │  streamed checkpoint
      ▼                     ▼
    POISONED ◀──────────  DONE (result accepted, cell merged)

Robustness rules (the whole point of this module):

* **at-least-once, dedup at the top** — transports may deliver any
  message twice; results dedup by task id, stolen shards by steal id,
  everything else is idempotent;
* **stale holders** — checkpoint/stolen messages are accepted only
  from the task's *current* lease holder; a result from a stale
  holder is accepted only if no steal was ever granted on the task
  (statistics are cumulative, so any attempt's result covers the same
  work — unless a steal carved the frontier after that attempt
  started);
* **poison quarantine** — a cell whose attempts keep dying is
  quarantined after ``max_cell_retries`` retries and surfaced in the
  report with full diagnostics, instead of wedging the campaign in a
  retry loop;
* **coordinator crash-resume** — all queue/retry/dedup state is
  checkpointed atomically to ``state_path``; a restarted coordinator
  requeues in-flight tasks from their last checkpoints, and *adopts*
  the lease of any worker that is still alive and heartbeating.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Callable, Dict, List, Optional, Sequence, Set

from ...clock import Clock, SystemClock
from ...explore.base import ExplorationLimits
from ...ioutil import atomic_write_json, read_json
from ..aggregate import merge_stolen_results
from ..cells import CampaignCell
from ..partial import limits_to_dict, write_partial
from ..runner import CampaignResult
from ..store import ResultStore
from ..worker import CellResult
from . import messages as M
from .messages import PROTOCOL_VERSION, Task
from .transport import CoordinatorServer

STATE_VERSION = 1
STATE_KIND = "repro-campaign-coordinator-state"

#: strategies the coordinator steals from: splittable *and*
#: count-exact under partition.  The caching strategies are splittable
#: too, but a stolen shard explores without the victim's future cache
#: entries, so ``num_schedules``/``num_pruned`` could differ from the
#: serial run (the sets would stay exact).
EXACT_STEAL_EXPLORERS = frozenset({
    "dfs", "preempt-bounded", "iterative-cb", "delay-bounded",
})


@dataclass
class Lease:
    """One granted task: who holds it and until when."""

    task_id: str
    worker: str
    granted_at: float
    deadline: float
    schedules: int = 0            #: last progress report
    #: a pending steal command ``(steal_id, max_shards)`` repeated in
    #: every heartbeat reply until the ``stolen`` message arrives
    steal_pending: Optional[tuple] = None


@dataclass
class _CellBook:
    """Per-cell retry/diagnostic bookkeeping."""

    retries: int = 0
    workers: List[str] = field(default_factory=list)
    last_error: Optional[str] = None
    last_status: Optional[str] = None


class Coordinator:
    """Synchronous coordinator state machine + its pump loop."""

    #: minimum seconds between state-file flushes (final flush always
    #: happens); bounds checkpoint I/O like the result store does
    flush_interval = 1.0
    #: seconds an idle worker is told to wait before re-requesting
    idle_wait = 0.25
    #: a lease younger than this is not a steal victim (give the
    #: worker time to grow its frontier past the trivial prefix)
    steal_min_age = 0.5
    #: upper bound on shards requested per steal command
    steal_max_shards = 4

    def __init__(
        self,
        cells: Sequence[CampaignCell],
        limits: Optional[ExplorationLimits] = None,
        *,
        server: Optional[CoordinatorServer] = None,
        store: Optional[ResultStore] = None,
        state_path: Optional[str] = None,
        lease_timeout: float = 15.0,
        max_cell_retries: int = 3,
        steal: bool = True,
        verify: bool = True,
        progress: Optional[Callable[[str], None]] = None,
        clock: Clock = SystemClock(),
    ) -> None:
        if lease_timeout <= 0:
            raise ValueError(f"lease_timeout must be > 0, got "
                             f"{lease_timeout}")
        if max_cell_retries < 0:
            raise ValueError(f"max_cell_retries must be >= 0, got "
                             f"{max_cell_retries}")
        self.cells = list(cells)
        self.limits = limits or ExplorationLimits()
        self.server = server
        self.store = store
        self.state_path = state_path
        self.lease_timeout = lease_timeout
        self.max_cell_retries = max_cell_retries
        self.steal_enabled = steal
        self.verify = verify
        self.progress = progress
        self._clock = clock

        #: outstanding work: task_id -> Task (pending or leased)
        self._tasks: Dict[str, Task] = {}
        self._pending: List[str] = []
        self._leases: Dict[str, Lease] = {}
        #: accepted task results (parents and shards), by task id
        self._results: Dict[str, CellResult] = {}
        #: final per-cell results: merged, cached or poisoned
        self._merged: Dict[str, CellResult] = {}
        self._poisoned: Dict[str, CellResult] = {}
        #: latest streamed snapshot per task (requeues resume here)
        self._checkpoints: Dict[str, Dict[str, Any]] = {}
        self._book: Dict[str, _CellBook] = {}
        #: shard task ids created by steals, per cell, creation order
        self._shards_of: Dict[str, List[str]] = {}
        self._steal_counter: Dict[str, int] = {}
        #: steals ever granted per task id (stale-result gate)
        self._steals_granted: Dict[str, int] = {}
        #: accepted steal ids per task id (stolen-message dedup)
        self._steal_ids_seen: Dict[str, Set[int]] = {}
        self._idle_since: Dict[str, float] = {}
        self.workers: Set[str] = set()

        self.num_executed = 0
        self.num_cached = 0
        self.num_resumed = 0
        self.num_expired = 0
        self.num_duplicates = 0
        self.num_adopted = 0
        self.num_steals = 0
        self.state_discarded = False

        self._dirty = False
        self._last_flush = 0.0
        self._started = self._clock()

        if self.store is not None:
            if self.store.limits is None:
                self.store.limits = self.limits
            if not self.store.loaded:
                self.store.load()
            for cell in self.cells:
                cached = self.store.get(cell)
                if cached is not None and cached.ok:
                    self._merged[cell.key] = cached
                    self.num_cached += 1

        if not self._load_state():
            self._seed_queue()
        self._dirty = True

    # -- initial queue ------------------------------------------------------

    def _seed_queue(self) -> None:
        for cell in self.cells:
            if cell.key in self._merged:
                continue
            snapshot = (self.store.load_partial(cell.key)
                        if self.store is not None else None)
            if snapshot is not None:
                self.num_resumed += 1
            self._enqueue(Task(cell.key, cell.key, snapshot=snapshot))

    def _enqueue(self, task: Task) -> None:
        self._tasks[task.task_id] = task
        self._pending.append(task.task_id)
        self._dirty = True

    # -- message dispatch ---------------------------------------------------

    def handle(self, msg: Dict[str, Any],
               now: Optional[float] = None) -> Dict[str, Any]:
        """Map one worker message to its reply (pure state transition)."""
        now = self._clock() if now is None else now
        handler = {
            M.HELLO: self._on_hello,
            M.REQUEST: self._on_request,
            M.HEARTBEAT: self._on_heartbeat,
            M.CHECKPOINT: self._on_checkpoint,
            M.STOLEN: self._on_stolen,
            M.RESULT: self._on_result,
        }.get(msg.get("type"))
        if handler is None:
            return M.reply_error(f"unknown message type "
                                 f"{msg.get('type')!r}")
        worker = msg.get("worker")
        if not isinstance(worker, str) or not worker:
            return M.reply_error("missing worker id")
        self.workers.add(worker)
        return handler(worker, msg, now)

    def _on_hello(self, worker: str, msg: Dict[str, Any],
                  now: float) -> Dict[str, Any]:
        if msg.get("protocol") != PROTOCOL_VERSION:
            return M.reply_error(
                f"protocol mismatch: coordinator speaks "
                f"v{PROTOCOL_VERSION}, worker sent "
                f"{msg.get('protocol')!r}"
            )
        heartbeat = min(max(self.lease_timeout / 4.0, 0.05), 5.0)
        return M.reply_ok(
            protocol=PROTOCOL_VERSION,
            limits=limits_to_dict(self.limits),
            verify=self.verify,
            lease_timeout=self.lease_timeout,
            heartbeat_interval=heartbeat,
        )

    def _on_request(self, worker: str, msg: Dict[str, Any],
                    now: float) -> Dict[str, Any]:
        self._expire_leases(now)
        if self.done:
            return {"type": M.SHUTDOWN}
        if not self._pending:
            self._idle_since.setdefault(worker, now)
            self._consider_steal(now)
            return {"type": M.IDLE, "wait": self.idle_wait}
        task_id = self._pending.pop(0)
        task = self._tasks[task_id]
        self._idle_since.pop(worker, None)
        self._leases[task_id] = Lease(
            task_id, worker, granted_at=now,
            deadline=now + self.lease_timeout,
        )
        self._dirty = True
        wire = task.to_dict()
        wire["snapshot"] = self._checkpoints.get(task_id, task.snapshot)
        return {"type": M.LEASE, "task": wire}

    def _on_heartbeat(self, worker: str, msg: Dict[str, Any],
                      now: float) -> Dict[str, Any]:
        task_id = msg.get("task_id")
        lease = self._leases.get(task_id)
        if lease is None and task_id in self._pending:
            # a coordinator restart dropped the lease table; the worker
            # is demonstrably alive and still computing — adopt it
            self._pending.remove(task_id)
            lease = Lease(task_id, worker, granted_at=now,
                          deadline=now + self.lease_timeout)
            self._leases[task_id] = lease
            self.num_adopted += 1
            self._dirty = True
        if lease is None or lease.worker != worker:
            return M.reply_ok(abandon=True)
        lease.deadline = now + self.lease_timeout
        lease.schedules = int(msg.get("schedules", lease.schedules))
        reply = M.reply_ok()
        if lease.steal_pending is not None:
            steal_id, max_shards = lease.steal_pending
            reply["steal"] = {"steal_id": steal_id,
                              "max_shards": max_shards}
        return reply

    def _on_checkpoint(self, worker: str, msg: Dict[str, Any],
                       now: float) -> Dict[str, Any]:
        task_id = msg.get("task_id")
        lease = self._leases.get(task_id)
        if lease is None and task_id in self._pending:
            # same adoption rule as heartbeats (a checkpoint is the
            # strongest possible liveness proof)
            self._pending.remove(task_id)
            lease = Lease(task_id, worker, granted_at=now,
                          deadline=now + self.lease_timeout)
            self._leases[task_id] = lease
            self.num_adopted += 1
        if lease is None or lease.worker != worker:
            return M.reply_ok(abandon=True)
        snapshot = msg.get("snapshot")
        if isinstance(snapshot, dict):
            self._checkpoints[task_id] = snapshot
            if self.store is not None:
                write_partial(self.store.partial_path(task_id),
                              task_id, self.limits, snapshot)
            self._dirty = True
        lease.deadline = now + self.lease_timeout
        lease.schedules = int(msg.get("schedules", lease.schedules))
        return M.reply_ok()

    def _on_stolen(self, worker: str, msg: Dict[str, Any],
                   now: float) -> Dict[str, Any]:
        task_id = msg.get("task_id")
        lease = self._leases.get(task_id)
        if lease is None or lease.worker != worker:
            # stale holder: its shards would double-cover work the
            # requeued attempt (resumed from a pre-steal checkpoint)
            # already owns — drop them
            return M.reply_ok(abandon=True)
        steal_id = int(msg.get("steal_id", -1))
        seen = self._steal_ids_seen.setdefault(task_id, set())
        if steal_id in seen:
            self.num_duplicates += 1
            return M.reply_ok(duplicate=True)
        seen.add(steal_id)
        lease.steal_pending = None
        lease.deadline = now + self.lease_timeout
        task = self._tasks[task_id]
        shards = msg.get("shards") or []
        post_steal = msg.get("snapshot")
        if isinstance(post_steal, dict):
            # the victim's own state now *excludes* the stolen items;
            # any future requeue of this task must resume here, or the
            # stolen subtrees would be explored twice
            self._checkpoints[task_id] = post_steal
        if shards:
            self._steals_granted[task_id] = \
                self._steals_granted.get(task_id, 0) + len(shards)
            self.num_steals += 1
            cell_key = task.cell_key
            for i, shard_snapshot in enumerate(shards):
                shard_id = f"{cell_key}@steal{steal_id}-{i}"
                self._shards_of.setdefault(cell_key, []).append(shard_id)
                self._enqueue(Task(shard_id, cell_key,
                                   snapshot=shard_snapshot))
        self._dirty = True
        return M.reply_ok(shards_accepted=len(shards))

    def _on_result(self, worker: str, msg: Dict[str, Any],
                   now: float) -> Dict[str, Any]:
        task_id = msg.get("task_id")
        if task_id in self._results or task_id not in self._tasks:
            # completed (possibly by another attempt), or dropped with
            # a poisoned cell: acknowledge so the worker moves on
            self.num_duplicates += 1
            return M.reply_ok(duplicate=True)
        lease = self._leases.get(task_id)
        holder = lease is not None and lease.worker == worker
        if not holder and self._steals_granted.get(task_id, 0):
            # a stale attempt racing a post-steal attempt does NOT
            # cover the same work — only the current holder's result
            # (or a steal-free stale one) is complete
            return M.reply_ok(abandon=True)
        try:
            result = CellResult.from_dict(msg["result"])
        except (KeyError, TypeError, ValueError) as exc:
            return M.reply_error(f"malformed result: {exc}")
        task = self._tasks[task_id]
        if not holder and (not result.ok or result.stats is None):
            # a stale attempt's failure is old news — the live attempt
            # decides the cell's fate, don't burn a retry on it
            return M.reply_ok(duplicate=True)
        if not holder:
            # steal-free stale result: statistics are cumulative, so
            # this attempt covers everything the re-queued/re-leased
            # attempt would — accept it and cancel the duplicate
            if task_id in self._pending:
                self._pending.remove(task_id)
        self._leases.pop(task_id, None)
        if not result.ok or result.stats is None:
            self._attempt_failed(
                task, worker,
                error=result.error or "worker reported failure",
                status=(result.diagnostics or {}).get("status", "failed"),
                now=now,
            )
            return M.reply_ok()
        self._results[task_id] = result
        del self._tasks[task_id]
        self.num_executed += 1
        partial = msg.get("partial")
        if self.store is not None:
            if isinstance(partial, dict):
                # budget-limited cell: keep its final frontier so a
                # laxer-budget local resume continues it
                write_partial(self.store.partial_path(task_id),
                              task_id, self.limits, partial)
            else:
                self.store.clear_partial(task_id)
        self._checkpoints.pop(task_id, None)
        self._dirty = True
        self._maybe_complete_cell(task.cell_key)
        return M.reply_ok()

    # -- failure / expiry / poison -----------------------------------------

    def _expire_leases(self, now: float) -> None:
        for task_id in [tid for tid, lease in self._leases.items()
                        if now > lease.deadline]:
            lease = self._leases.pop(task_id)
            task = self._tasks.get(task_id)
            if task is None:
                continue
            self.num_expired += 1
            self._attempt_failed(
                task, lease.worker,
                error=(f"lease expired: no heartbeat from "
                       f"{lease.worker!r} within "
                       f"{self.lease_timeout:g}s "
                       f"(last progress: {lease.schedules} schedules)"),
                status="lease_expired",
                now=now,
            )

    def _attempt_failed(self, task: Task, worker: str, error: str,
                        status: str, now: float) -> None:
        book = self._book.setdefault(task.cell_key, _CellBook())
        book.retries += 1
        book.workers.append(worker)
        book.last_error = error
        book.last_status = status
        self._dirty = True
        if book.retries > self.max_cell_retries:
            self._poison_cell(task.cell_key)
            return
        task.attempt += 1
        if task.task_id not in self._pending:
            self._pending.append(task.task_id)

    def _poison_cell(self, cell_key: str) -> None:
        """Quarantine a cell that keeps killing its workers."""
        if cell_key in self._poisoned:
            return
        book = self._book.setdefault(cell_key, _CellBook())
        checkpoint = self._checkpoints.get(cell_key)
        result = CellResult(
            CampaignCell.from_key(cell_key), None, ok=False,
            error=(f"quarantined after {book.retries} failed attempts "
                   f"(max_cell_retries={self.max_cell_retries}); "
                   f"last error: "
                   f"{(book.last_error or '?').splitlines()[0]}"),
            diagnostics={
                "status": "quarantined",
                "retries": book.retries,
                "workers": list(book.workers),
                "traceback": book.last_error,
                "last_failure": book.last_status,
                "last_checkpoint_depth":
                    _snapshot_depth(checkpoint),
            },
        )
        self._poisoned[cell_key] = result
        self._merged[cell_key] = result
        # drop every outstanding task of the cell: pending entries,
        # leases (their holders get ``abandon`` on the next message)
        # and any completed shard results (the cell failed as a whole)
        doomed = [tid for tid, t in self._tasks.items()
                  if t.cell_key == cell_key]
        for tid in doomed:
            del self._tasks[tid]
            self._leases.pop(tid, None)
            if tid in self._pending:
                self._pending.remove(tid)
            self._checkpoints.pop(tid, None)
        for tid in self._shards_of.pop(cell_key, []):
            self._results.pop(tid, None)
        self._results.pop(cell_key, None)
        self._dirty = True
        if self.progress is not None:
            self.progress(f"{cell_key:<28} QUARANTINED: "
                          f"{(book.last_error or '?').splitlines()[0]}")

    # -- completion / merge -------------------------------------------------

    def _maybe_complete_cell(self, cell_key: str) -> None:
        if cell_key in self._merged:
            return
        if any(t.cell_key == cell_key for t in self._tasks.values()):
            return
        parent = self._results.get(cell_key)
        if parent is None:
            return
        shard_ids = self._shards_of.get(cell_key, [])
        shards = [self._results[tid] for tid in shard_ids
                  if tid in self._results]
        if len(shards) != len(shard_ids):  # pragma: no cover - guarded
            return                         # by the _tasks check above
        if shards:
            merged = merge_stolen_results(parent, shards)
        else:
            merged = parent
        if self.verify and merged.ok and merged.stats is not None:
            merged.stats.verify_inequality()
        self._merged[cell_key] = merged
        if self.store is not None and merged.ok:
            self.store.add(merged)
            for tid in shard_ids:
                self.store.clear_partial(tid)
        self._dirty = True
        if self.progress is not None and merged.stats is not None:
            tag = f"  [stolen x{len(shards)}]" if shards else ""
            self.progress(merged.stats.summary() + tag)

    @property
    def done(self) -> bool:
        return all(cell.key in self._merged for cell in self.cells)

    # -- work stealing ------------------------------------------------------

    def _consider_steal(self, now: float) -> None:
        """Ask the oldest eligible lease to donate half its frontier."""
        if not self.steal_enabled or self._pending:
            return
        # forget idle workers that stopped asking (they died or left)
        for worker, since in list(self._idle_since.items()):
            if now - since > self.lease_timeout:
                del self._idle_since[worker]
        if not self._idle_since:
            return
        for task_id, lease in sorted(self._leases.items(),
                                     key=lambda kv: kv[1].granted_at):
            if lease.steal_pending is not None:
                continue
            if now - lease.granted_at < self.steal_min_age:
                continue
            task = self._tasks[task_id]
            if task.cell.explorer not in EXACT_STEAL_EXPLORERS:
                continue
            counter = self._steal_counter.get(task.cell_key, 0) + 1
            self._steal_counter[task.cell_key] = counter
            lease.steal_pending = (
                counter,
                min(len(self._idle_since), self.steal_max_shards),
            )
            self._dirty = True
            return

    # -- run loop -----------------------------------------------------------

    def run(
        self,
        poll_interval: float = 0.05,
        max_seconds: Optional[float] = None,
        linger: float = 1.0,
    ) -> CampaignResult:
        """Pump the transport until every cell is merged or poisoned.

        After completion the coordinator keeps answering for ``linger``
        seconds so parked workers receive their ``shutdown`` instead of
        timing out.  ``max_seconds`` bounds the whole run; cells still
        outstanding at the deadline come back as failed results (state
        is checkpointed, so a restarted coordinator resumes them).
        """
        if self.server is None:
            raise ValueError("Coordinator.run needs a transport server")
        start = self._clock()
        try:
            while not self.done:
                if (max_seconds is not None
                        and self._clock() - start > max_seconds):
                    break
                for msg, reply in self.server.poll(poll_interval):
                    reply(self.handle(msg))
                now = self._clock()
                self._expire_leases(now)
                self._consider_steal(now)
                self._maybe_flush(now)
            deadline = self._clock() + (linger if self.done else 0.0)
            while self._clock() < deadline:
                for msg, reply in self.server.poll(poll_interval):
                    reply(self.handle(msg))
        finally:
            self.flush_state()
            if self.store is not None:
                self.store.flush()
        return self.result()

    def result(self) -> CampaignResult:
        """Results in deterministic work-list order (missing cells — a
        timed-out run — become failed placeholders)."""
        out = CampaignResult(jobs=max(1, len(self.workers)))
        for cell in self.cells:
            merged = self._merged.get(cell.key)
            if merged is None:
                merged = CellResult(
                    cell, None, ok=False,
                    error="campaign incomplete: cell still outstanding "
                          "when the coordinator stopped",
                )
            out.results.append(merged)
        out.num_executed = self.num_executed
        out.num_cached = self.num_cached
        out.num_resumed = self.num_resumed
        out.elapsed = self._clock() - self._started
        return out

    # -- crash-safe state ---------------------------------------------------

    def _maybe_flush(self, now: float) -> None:
        if self._dirty and now - self._last_flush >= self.flush_interval:
            self.flush_state()

    def flush_state(self) -> None:
        """Atomically checkpoint the queue/lease bookkeeping."""
        if self.state_path is None or not self._dirty:
            return
        # leases are deliberately persisted as pending work: a
        # restarted coordinator cannot trust old deadlines, so live
        # holders re-attach via heartbeat adoption and dead ones are
        # simply never heard from again
        ordered = self._pending + [tid for tid in self._leases
                                   if tid not in self._pending]
        payload = {
            "version": STATE_VERSION,
            "kind": STATE_KIND,
            "limits": limits_to_dict(self.limits),
            "cells": [cell.key for cell in self.cells],
            "max_cell_retries": self.max_cell_retries,
            "tasks": [self._tasks[tid].to_dict() for tid in ordered
                      if tid in self._tasks],
            "checkpoints": self._checkpoints,
            "results": {tid: r.to_dict()
                        for tid, r in self._results.items()},
            "poisoned": {key: r.to_dict()
                         for key, r in self._poisoned.items()},
            "book": {
                key: {
                    "retries": b.retries,
                    "workers": b.workers,
                    "last_error": b.last_error,
                    "last_status": b.last_status,
                }
                for key, b in self._book.items()
            },
            "shards_of": self._shards_of,
            "steal_counter": self._steal_counter,
            "steals_granted": self._steals_granted,
            "steal_ids_seen": {tid: sorted(ids) for tid, ids
                               in self._steal_ids_seen.items()},
            "counters": {
                "num_executed": self.num_executed,
                "num_resumed": self.num_resumed,
                "num_expired": self.num_expired,
                "num_duplicates": self.num_duplicates,
                "num_steals": self.num_steals,
            },
        }
        atomic_write_json(self.state_path, payload, indent=0)
        self._dirty = False
        self._last_flush = self._clock()

    def _load_state(self) -> bool:
        """Restore a previous coordinator's checkpoint; False means
        start fresh (no file, or an incompatible one)."""
        if self.state_path is None:
            return False
        payload = read_json(self.state_path)
        if not isinstance(payload, dict):
            return False
        if (payload.get("version") != STATE_VERSION
                or payload.get("kind") != STATE_KIND
                or payload.get("limits") != limits_to_dict(self.limits)
                or payload.get("cells") != [c.key for c in self.cells]):
            # a different campaign's state: ignore it rather than mix
            self.state_discarded = True
            return False
        try:
            tasks = [Task.from_dict(t) for t in payload.get("tasks", [])]
            results = {tid: CellResult.from_dict(r)
                       for tid, r in payload.get("results", {}).items()}
            poisoned = {key: CellResult.from_dict(r)
                        for key, r in payload.get("poisoned",
                                                  {}).items()}
        except (KeyError, TypeError, ValueError):
            self.state_discarded = True
            return False
        for key, r in poisoned.items():
            self._poisoned[key] = r
            self._merged.setdefault(key, r)
        for tid, r in results.items():
            self._results[tid] = r
        for task in tasks:
            if task.cell_key in self._merged:
                continue
            self._enqueue(task)
        self._checkpoints.update(
            {tid: snap for tid, snap
             in payload.get("checkpoints", {}).items()
             if isinstance(snap, dict)})
        for key, b in payload.get("book", {}).items():
            self._book[key] = _CellBook(
                retries=int(b.get("retries", 0)),
                workers=list(b.get("workers", [])),
                last_error=b.get("last_error"),
                last_status=b.get("last_status"),
            )
        self._shards_of.update({
            key: list(v) for key, v
            in payload.get("shards_of", {}).items()
            if key not in self._merged})
        self._steal_counter.update(payload.get("steal_counter", {}))
        self._steals_granted.update(payload.get("steals_granted", {}))
        for tid, ids in payload.get("steal_ids_seen", {}).items():
            self._steal_ids_seen[tid] = set(ids)
        counters = payload.get("counters", {})
        self.num_executed = int(counters.get("num_executed", 0))
        self.num_resumed = int(counters.get("num_resumed", 0))
        self.num_expired = int(counters.get("num_expired", 0))
        self.num_duplicates = int(counters.get("num_duplicates", 0))
        self.num_steals = int(counters.get("num_steals", 0))
        # a crash may have separated the last result from its merge;
        # also seed any cell the state file somehow lost entirely
        for cell in self.cells:
            if cell.key in self._merged:
                continue
            outstanding = any(t.cell_key == cell.key
                              for t in self._tasks.values())
            if not outstanding and cell.key not in self._results:
                snapshot = (self._checkpoints.get(cell.key)
                            or (self.store.load_partial(cell.key)
                                if self.store is not None else None))
                self._enqueue(Task(cell.key, cell.key,
                                   snapshot=snapshot))
            else:
                self._maybe_complete_cell(cell.key)
        return True


def _snapshot_depth(snapshot: Optional[Dict[str, Any]]) -> Optional[int]:
    """Schedules already explored in a checkpoint snapshot, if any."""
    if not isinstance(snapshot, dict):
        return None
    stats = snapshot.get("stats")
    if isinstance(stats, dict):
        schedules = stats.get("num_schedules")
        if isinstance(schedules, int):
            return schedules
    return None
