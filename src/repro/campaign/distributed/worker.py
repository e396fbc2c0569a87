"""Distributed campaign worker: lease → execute → report, forever.

The worker is deliberately thin: all exploration goes through
:func:`repro.campaign.worker.execute_cell` — the same cell executor
the local pool uses — under its hard watchdog (``hard_timeout=``),
with two callbacks riding the explorer's one between-schedules hook:

* the **control callback** probes the chaos plan (fault injection),
  heartbeats the lease at the coordinator-prescribed interval, honours
  ``abandon`` replies (stop cooperatively, discard the result) and
  answers ``steal`` commands by donating the bottom half of the
  frontier;
* the **checkpoint sink** streams periodic snapshots (and a
  budget-limited cell's final one) to the coordinator, which is what
  makes worker death cheap: the next attempt resumes from the last
  streamed checkpoint instead of schedule zero.

Failure stance: a lost heartbeat or checkpoint is *ignored* (the
worker keeps computing through coordinator restarts and network
partitions — at-least-once result delivery plus coordinator-side dedup
make that safe); only a result that cannot be delivered after real
retries ends the loop, because then the coordinator is genuinely gone.
"""

from __future__ import annotations

import time
from typing import Any, Callable, Dict, List, Optional

from ...clock import Clock, SystemClock
from ...explore.base import ExplorationLimits
from ..chaos import ChaosPlan
from ..worker import CellResult, execute_cell
from . import messages as M
from .messages import PROTOCOL_VERSION, Task
from .transport import TransportError, WorkerChannel


class DistributedWorker:
    """One worker process's lease loop."""

    #: per-request deadline for the cheap control-plane RPCs
    control_timeout = 2.0
    #: attempts for result delivery (the one RPC that must land)
    result_attempts = 8

    def __init__(
        self,
        channel: WorkerChannel,
        *,
        chaos: Optional[ChaosPlan] = None,
        hard_timeout: Optional[float] = None,
        progress: Optional[Callable[[str], None]] = None,
        clock: Clock = SystemClock(),
    ) -> None:
        self.channel = channel
        self.worker_id = channel.worker_id
        self.chaos = chaos
        self.hard_timeout = hard_timeout
        self.progress = progress
        self._clock = clock
        self._partition_until = 0.0

        # filled in by hello()
        self.limits = ExplorationLimits()
        self.verify = True
        self.lease_timeout = 15.0
        self.heartbeat_interval = 1.0

        self.num_tasks = 0
        self.num_completed = 0
        self.num_abandoned = 0
        self.num_donated = 0

    # -- RPC with partition semantics --------------------------------------

    def _rpc(self, msg: Dict[str, Any], critical: bool = False,
             **kw: Any) -> Dict[str, Any]:
        """Send one message, honouring an active chaos partition.

        During a partition window, control-plane messages are dropped
        (raise) — heartbeats go dark and the lease expires, exactly
        like a real netsplit.  ``critical`` messages (results, stolen
        shards) instead wait the partition out and then deliver: the
        worker survives the partition with its work intact, and the
        coordinator's dedup absorbs whatever got re-assigned meanwhile.
        """
        remaining = self._partition_until - self._clock()
        if remaining > 0:
            if not critical:
                raise TransportError("chaos: partitioned")
            time.sleep(remaining)
        return self.channel.request(msg, **kw)

    # -- lifecycle ----------------------------------------------------------

    def hello(self) -> None:
        reply = self._rpc({"type": M.HELLO, "protocol": PROTOCOL_VERSION},
                          critical=True)
        if reply.get("type") != M.OK:
            raise TransportError(f"coordinator rejected hello: {reply}")
        lim = reply.get("limits") or {}
        self.limits = ExplorationLimits(
            max_schedules=lim.get("max_schedules",
                                  self.limits.max_schedules),
            max_seconds=lim.get("max_seconds"),
            max_events_per_schedule=lim.get(
                "max_events_per_schedule",
                self.limits.max_events_per_schedule),
        )
        self.verify = bool(reply.get("verify", True))
        self.lease_timeout = float(reply.get("lease_timeout", 15.0))
        self.heartbeat_interval = float(
            reply.get("heartbeat_interval", 1.0))

    def run(self, max_tasks: Optional[int] = None) -> Dict[str, Any]:
        """Lease and execute until the coordinator says shutdown (or
        disappears).  Returns the worker's own counters."""
        self.hello()
        while max_tasks is None or self.num_tasks < max_tasks:
            try:
                reply = self._rpc({"type": M.REQUEST},
                                  timeout=self.control_timeout)
            except TransportError:
                break  # coordinator gone (or we are partitioned out)
            rtype = reply.get("type")
            if rtype == M.SHUTDOWN:
                break
            if rtype == M.IDLE:
                time.sleep(float(reply.get("wait", 0.25)))
                continue
            if rtype != M.LEASE:
                break  # protocol error; don't spin
            task = Task.from_dict(reply["task"])
            if not self._execute(task):
                break
        return {
            "worker": self.worker_id,
            "tasks": self.num_tasks,
            "completed": self.num_completed,
            "abandoned": self.num_abandoned,
            "donated": self.num_donated,
        }

    # -- one task -----------------------------------------------------------

    def _execute(self, task: Task) -> bool:
        """Run one leased task; False ends the lease loop (coordinator
        unreachable for result delivery)."""
        self.num_tasks += 1
        cell = task.cell
        state: Dict[str, Any] = {
            "abandoned": False,
            "last_hb": self._clock(),
            "explorer": None,
        }

        def control(explorer: Any) -> None:
            state["explorer"] = explorer
            schedules = explorer.stats.num_schedules
            if self.chaos is not None:
                rule = self.chaos.probe(self.worker_id, task.cell_key,
                                        schedules)
                if rule is not None and rule.action == "partition":
                    self._partition_until = self._clock() + rule.seconds
            now = self._clock()
            if now - state["last_hb"] < self.heartbeat_interval:
                return
            state["last_hb"] = now
            try:
                reply = self._rpc(
                    {"type": M.HEARTBEAT, "task_id": task.task_id,
                     "schedules": schedules},
                    timeout=self.control_timeout, max_attempts=1,
                )
            except TransportError:
                return  # keep computing; results re-deliver later
            if reply.get("abandon"):
                state["abandoned"] = True
                explorer.request_stop()
                return
            steal = reply.get("steal")
            if isinstance(steal, dict):
                self._donate(explorer, task, steal, state)

        def checkpoint(snapshot: Dict[str, Any]) -> None:
            try:
                reply = self._rpc(
                    {"type": M.CHECKPOINT, "task_id": task.task_id,
                     "snapshot": snapshot},
                    timeout=self.control_timeout, max_attempts=1,
                )
            except TransportError:
                return
            if reply.get("abandon"):
                state["abandoned"] = True
                explorer = state.get("explorer")
                if explorer is not None:
                    explorer.request_stop()

        result = execute_cell(
            cell, self.limits, self.verify,
            resume_state=task.snapshot,
            checkpoint_interval=min(2.0, self.lease_timeout / 4.0),
            checkpoint_fn=checkpoint,
            control_fn=control,
            hard_timeout=self.hard_timeout,
        )
        if state["abandoned"]:
            # the lease was revoked (expired + reassigned, or the cell
            # was poisoned): this result is a duplicate-in-the-making —
            # drop it, the current holder owns the task now
            self.num_abandoned += 1
            return True
        return self._deliver(task, result)

    def _deliver(self, task: Task, result: CellResult) -> bool:
        msg = {
            "type": M.RESULT,
            "task_id": task.task_id,
            "result": result.to_dict(),
            "partial": result.partial,
        }
        try:
            reply = self._rpc(msg, critical=True,
                              max_attempts=self.result_attempts)
        except TransportError:
            return False
        if reply.get("type") == M.ERROR:
            return False
        self.num_completed += 1
        if self.progress is not None and result.stats is not None:
            self.progress(result.stats.summary())
        return True

    # -- work donation ------------------------------------------------------

    def _donate(self, explorer: Any, task: Task, steal: Dict[str, Any],
                state: Dict[str, Any]) -> None:
        """Answer a steal command: cut half the frontier into shards.

        The shard payloads come from
        :meth:`~repro.explore.kernel.KernelExplorer.shard_states`, as in
        :mod:`repro.campaign.split`.  The ``stolen`` message also
        carries the victim's *post-steal* snapshot, which becomes the
        task's authoritative checkpoint — any later requeue must
        exclude the donated subtrees.
        """
        steal_id = int(steal.get("steal_id", 0))
        max_shards = max(1, int(steal.get("max_shards", 1)))
        frontier = getattr(explorer, "frontier", None)
        shards: List[Dict[str, Any]] = []
        parts: List[Any] = []
        if (frontier is not None and len(frontier) >= 2
                and hasattr(explorer, "shard_states")):
            stolen = frontier.steal(len(frontier) // 2)
            if len(stolen) > 1 and max_shards > 1:
                parts = [p for p in stolen.split(
                    min(max_shards, len(stolen))) if len(p)]
            elif len(stolen):
                parts = [stolen]
            shards = explorer.shard_states(parts)
        post_steal = (explorer.snapshot()
                      if hasattr(explorer, "snapshot") else None)
        try:
            reply = self._rpc(
                {"type": M.STOLEN, "task_id": task.task_id,
                 "steal_id": steal_id, "shards": shards,
                 "snapshot": post_steal},
                critical=True,
            )
        except TransportError:
            # the coordinator never learned of the donation: put the
            # items back or the stolen subtrees would be explored by
            # no one (the steal command will simply be re-sent)
            for part in parts:
                while part:
                    frontier.push(part.pop())
            return
        if reply.get("abandon"):
            state["abandoned"] = True
            explorer.request_stop()
            return
        if reply.get("duplicate"):
            return
        self.num_donated += len(shards)
