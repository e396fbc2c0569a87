"""Chaos-engineering integration tests for distributed campaigns.

Real coordinator, real forked worker processes, real fault injection —
and one invariant above all: however many workers die, hang, or get
partitioned mid-campaign, the **canonical report** (provenance
stripped, see :func:`repro.campaign.canonical_report_dict`) is
byte-for-byte identical to the serial run's.

The file-queue transport keeps these tests network-free; the kill
tests use ``os._exit(137)`` inside the explorer's control callback at
a deterministic schedule count (hypothesis picks the count), which is
as close to SIGKILL-at-a-bad-moment as a test can schedule.
"""

import json
import multiprocessing
import tempfile
import threading
import time
from pathlib import Path

from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.campaign import (
    CampaignCell,
    ChaosPlan,
    ChaosRule,
    campaign_report,
    canonical_report_dict,
    run_campaign,
)
from repro.campaign.distributed import (
    Coordinator,
    DistributedWorker,
    FileCoordinatorServer,
    FileWorkerChannel,
)
from repro.explore.base import ExplorationLimits

CTX = multiprocessing.get_context("fork")

#: bench 3 under dfs explores 252 schedules to exhaustion — big enough
#: that faults land mid-cell, small enough to re-run many times
SMALL_CELL = (3, "dfs", 0)
#: bench 75 under dfs explores 2660 schedules; the steal test holds
#: its victim open with chaos hangs, since the cell alone can finish
#: within one heartbeat interval
BIG_CELL = (75, "dfs", 0)


def canonical(report_dict):
    return json.dumps(canonical_report_dict(report_dict),
                      sort_keys=True)


_SERIAL_CACHE = {}


def serial_canonical(cells, limits):
    key = (tuple(cells), limits.max_schedules)
    if key not in _SERIAL_CACHE:
        cs = [CampaignCell(*c) for c in cells]
        campaign = run_campaign(cs, limits)
        _SERIAL_CACHE[key] = canonical(
            campaign_report(campaign, limits).to_dict())
    return _SERIAL_CACHE[key]


def _worker_main(queue_dir, worker_id, chaos_dict=None):
    """Forked worker process entry point."""
    chaos = (ChaosPlan.from_dict(chaos_dict) if chaos_dict else None)
    channel = FileWorkerChannel(queue_dir, worker_id)
    try:
        DistributedWorker(channel, chaos=chaos).run()
    finally:
        channel.close()


def spawn_worker(queue_dir, worker_id, chaos=None):
    proc = CTX.Process(
        target=_worker_main,
        args=(str(queue_dir), worker_id,
              chaos.to_dict() if chaos else None),
        daemon=True,
    )
    proc.start()
    return proc


def coordinator_thread(coord, box, **kw):
    def pump():
        box["result"] = coord.run(**kw)

    t = threading.Thread(target=pump, daemon=True)
    t.start()
    return t


def distributed_canonical(coord_result, limits):
    return canonical(campaign_report(coord_result, limits).to_dict())


def wait_for(predicate, timeout=20.0, what="condition"):
    deadline = time.monotonic() + timeout
    while time.monotonic() < deadline:
        if predicate():
            return
        time.sleep(0.01)
    raise AssertionError(f"timed out waiting for {what}")


class TestKillWorkerMidCell:
    @settings(max_examples=3, deadline=None,
              suppress_health_check=[HealthCheck.too_slow])
    @given(kill_at=st.integers(min_value=5, max_value=200))
    def test_killed_worker_resumes_bit_identical(self, kill_at):
        """Kill a worker at a hypothesis-chosen schedule count; a
        clean worker resumes from the streamed checkpoint and the
        final report matches the serial run byte for byte."""
        cells = [SMALL_CELL]
        limits = ExplorationLimits(max_schedules=1000)
        expected = serial_canonical(cells, limits)
        with tempfile.TemporaryDirectory() as tmp:
            queue = Path(tmp) / "q"
            server = FileCoordinatorServer(queue)
            coord = Coordinator(
                [CampaignCell(*c) for c in cells], limits,
                server=server, lease_timeout=1.0, max_cell_retries=5,
            )
            box = {}
            pump = coordinator_thread(coord, box, max_seconds=60)
            try:
                chaos = ChaosPlan([ChaosRule(
                    "kill", cell="3:dfs:0", after_schedules=kill_at)])
                victim = spawn_worker(queue, "victim", chaos)
                victim.join(timeout=30)
                assert victim.exitcode == 137, \
                    "chaos kill never fired"
                # only now does the rescuer start: the victim
                # provably died holding the lease
                rescuer = spawn_worker(queue, "rescuer")
                pump.join(timeout=60)
                assert not pump.is_alive(), "campaign never finished"
                rescuer.join(timeout=30)
            finally:
                server.close()
            assert coord.num_expired >= 1
            assert distributed_canonical(box["result"], limits) == \
                expected


class TestCoordinatorCrashResume:
    def test_kill_and_resume_coordinator_mid_campaign(self, tmp_path):
        """Stop the coordinator mid-campaign (state checkpointed),
        start a replacement on the same state file: live workers are
        adopted and the final report is serial-identical."""
        cells = [(75, "dfs", 0), (80, "dfs", 0),
                 (75, "dfs", 1), (80, "dfs", 1)]
        limits = ExplorationLimits(max_schedules=3000)
        expected = serial_canonical(cells, limits)
        queue = tmp_path / "q"
        state = str(tmp_path / "coord-state.json")
        workers = [spawn_worker(queue, f"w{i}") for i in range(2)]
        try:
            server = FileCoordinatorServer(queue)
            first = Coordinator(
                [CampaignCell(*c) for c in cells], limits,
                server=server, state_path=state, lease_timeout=5.0,
            )
            # first incarnation: cut off mid-campaign (its final state
            # flush stands in for the periodic crash-safe checkpoint,
            # whose atomicity test_ioutil kill-tests directly)
            first.run(max_seconds=1.0)
            interrupted = not first.done

            second = Coordinator(
                [CampaignCell(*c) for c in cells], limits,
                server=server, state_path=state, lease_timeout=5.0,
            )
            assert not second.state_discarded
            result = second.run(max_seconds=120)
            server.close()
            for proc in workers:
                proc.join(timeout=30)
        finally:
            for proc in workers:
                if proc.is_alive():
                    proc.terminate()
        assert distributed_canonical(result, limits) == expected
        if interrupted:
            # the replacement really did inherit in-flight work: it
            # adopted a live worker's lease or resumed from checkpoint
            assert (second.num_adopted + second.num_executed) >= 1

    def test_stale_state_from_other_campaign_is_ignored(self, tmp_path):
        state = tmp_path / "coord-state.json"
        state.write_text(json.dumps({
            "version": 1, "kind": "repro-campaign-coordinator-state",
            "limits": {"max_schedules": 7, "max_seconds": None,
                       "max_events_per_schedule": 1},
            "cells": ["9:dfs:9"], "tasks": [],
        }))
        coord = Coordinator(
            [CampaignCell(*SMALL_CELL)],
            ExplorationLimits(max_schedules=1000),
            state_path=str(state),
        )
        assert coord.state_discarded
        assert coord._pending == ["3:dfs:0"]


class TestDuplicateDelivery:
    def test_partitioned_worker_redelivers_and_is_deduped(self,
                                                          tmp_path):
        """A network partition mutes a worker's heartbeats mid-cell:
        its lease expires and the cell is re-executed elsewhere, then
        the partition heals and the original result arrives late.
        At-least-once delivery + dedup: counted once, bit-identical."""
        cells = [SMALL_CELL]
        limits = ExplorationLimits(max_schedules=1000)
        expected = serial_canonical(cells, limits)
        queue = tmp_path / "q"
        server = FileCoordinatorServer(queue)
        coord = Coordinator(
            [CampaignCell(*c) for c in cells], limits,
            server=server, lease_timeout=0.6, max_cell_retries=5,
            steal=False,
        )
        box = {}
        # linger long enough to absorb the post-partition redelivery
        pump = coordinator_thread(coord, box, max_seconds=60,
                                  linger=6.0)
        chaos = ChaosPlan([ChaosRule("partition", cell="3:dfs:0",
                                     after_schedules=50, seconds=2.5)])
        victim = spawn_worker(queue, "victim", chaos)
        # the backup must not win the race for the only lease, or no
        # fault ever fires — start it once the victim holds the cell
        wait_for(lambda: coord._leases, what="victim's lease")
        backup = spawn_worker(queue, "backup")
        try:
            pump.join(timeout=60)
            assert not pump.is_alive(), "campaign never finished"
            # the campaign completed before the partition healed; the
            # late redelivery needs the linger window (and both worker
            # processes) to fully drain
            victim.join(timeout=30)
            backup.join(timeout=30)
        finally:
            server.close()
            for proc in (victim, backup):
                if proc.is_alive():
                    proc.terminate()
        assert coord.num_expired >= 1
        assert coord.num_executed == 1
        # the healed victim redelivered and was absorbed exactly once
        assert coord.num_duplicates >= 1
        assert distributed_canonical(box["result"], limits) == expected


class TestPoisonQuarantineIntegration:
    def test_cell_that_keeps_killing_workers_is_quarantined(
            self, tmp_path):
        """A cell that SIGKILLs every worker that touches it must end
        up quarantined with full diagnostics — not retry forever."""
        limits = ExplorationLimits(max_schedules=1000)
        queue = tmp_path / "q"
        server = FileCoordinatorServer(queue)
        coord = Coordinator(
            [CampaignCell(*SMALL_CELL)], limits,
            server=server, lease_timeout=0.8, max_cell_retries=2,
        )
        box = {}
        pump = coordinator_thread(coord, box, max_seconds=90)
        chaos = ChaosPlan([ChaosRule("kill", cell="3:dfs:0",
                                     after_schedules=5, times=-1)])
        kill_count = 0
        try:
            # the fleet manager: respawn the (always-doomed) worker
            # until the coordinator gives up on the cell
            for _ in range(8):
                if coord.done:
                    break
                proc = spawn_worker(queue, f"doomed{kill_count}",
                                    chaos)
                proc.join(timeout=30)
                if proc.exitcode == 137:
                    kill_count += 1
            pump.join(timeout=90)
            assert not pump.is_alive(), "campaign never finished"
        finally:
            server.close()
        assert kill_count >= 3  # initial attempt + max_cell_retries
        cell = box["result"].results[0]
        assert not cell.ok
        assert "quarantined after 3 failed attempts" in cell.error
        diag = cell.diagnostics
        assert diag["status"] == "quarantined"
        assert diag["retries"] == 3
        assert len(diag["workers"]) == 3
        assert diag["last_failure"] == "lease_expired"
        # the report document round-trips the forensics
        payload = campaign_report(box["result"], limits).to_dict()
        assert payload["cells"][0]["diagnostics"]["status"] == \
            "quarantined"


class TestWorkStealingIntegration:
    def test_stolen_shards_merge_bit_identical(self, tmp_path):
        """Three workers on one big DFS cell: the idle two steal
        frontier shards from the victim, and the merged cell equals
        the serial exploration exactly."""
        cells = [BIG_CELL]
        limits = ExplorationLimits(max_schedules=3000)
        expected = serial_canonical(cells, limits)
        queue = tmp_path / "q"
        server = FileCoordinatorServer(queue)
        lease_timeout = 0.8
        coord = Coordinator(
            [CampaignCell(*c) for c in cells], limits,
            server=server, lease_timeout=lease_timeout,
        )
        coord.steal_min_age = 0.05  # don't wait long in a test
        # the cell can finish within one heartbeat interval (a quarter
        # of the lease), before any steal command reaches its holder.
        # Two hangs at schedule 100, each shorter than the lease and
        # each followed by a heartbeat that renews it, give the idle
        # workers time to ask and the holder two replies to carry the
        # steal.  Thieves run shards of the same cell and may hang too.
        chaos = ChaosPlan([ChaosRule(
            "hang", cell=CampaignCell(*BIG_CELL).key, after_schedules=100,
            times=2, seconds=lease_timeout / 2)])
        box = {}
        pump = coordinator_thread(coord, box, max_seconds=120)
        workers = [spawn_worker(queue, f"w{i}", chaos=chaos)
                   for i in range(3)]
        try:
            pump.join(timeout=120)
            assert not pump.is_alive(), "campaign never finished"
            for proc in workers:
                proc.join(timeout=30)
        finally:
            server.close()
            for proc in workers:
                if proc.is_alive():
                    proc.terminate()
        assert coord.num_steals >= 1
        merged = box["result"].results[0]
        assert merged.stats.extra["dist_stolen_shards"] >= 1
        assert distributed_canonical(box["result"], limits) == expected


def _cli_worker_main(queue_dir):
    import repro.__main__ as cli
    raise SystemExit(cli.main([
        "campaign", "--worker", "--transport", "file",
        "--queue", queue_dir, "--worker-id", "cli-w1",
    ]))


class TestDistributedCli:
    def test_file_transport_end_to_end(self, tmp_path):
        """``repro campaign --coordinator`` + ``--worker`` over a file
        queue produce the standard report artifact."""
        import repro.__main__ as cli
        queue = tmp_path / "q"
        out = tmp_path / "report.json"
        proc = CTX.Process(target=_cli_worker_main,
                           args=(str(queue),), daemon=True)
        proc.start()
        try:
            rc = cli.main([
                "campaign", "--coordinator", "--transport", "file",
                "--queue", str(queue), "--ids", "5",
                "--explorers", "dfs", "--limit", "500",
                "--out", str(out),
                "--state", str(tmp_path / "state.json"),
            ])
            proc.join(timeout=30)
        finally:
            if proc.is_alive():
                proc.terminate()
        assert rc == 0
        assert proc.exitcode == 0
        payload = json.loads(out.read_text())
        assert payload["kind"] == "repro-campaign-report"
        assert payload["campaign"]["distributed"] is True
        assert payload["summary"]["num_failed"] == 0
        assert payload["cells"][0]["ok"] is True

    def test_worker_without_coordinator_fails_cleanly(self, tmp_path):
        import repro.__main__ as cli
        rc = cli.main([
            "campaign", "--worker", "--transport", "tcp",
            "--connect", "127.0.0.1:1", "--worker-id", "lonely",
        ])
        assert rc == 1


class TestHangChaos:
    def test_hung_worker_lease_expires_and_cell_recovers(self,
                                                         tmp_path):
        """A wedged worker (sleeping through its heartbeats) loses the
        lease; the cell completes elsewhere, serial-identical."""
        cells = [SMALL_CELL]
        limits = ExplorationLimits(max_schedules=1000)
        expected = serial_canonical(cells, limits)
        queue = tmp_path / "q"
        server = FileCoordinatorServer(queue)
        coord = Coordinator(
            [CampaignCell(*c) for c in cells], limits,
            server=server, lease_timeout=0.6, max_cell_retries=5,
            steal=False,
        )
        box = {}
        # the sleeper redelivers ~4s after it hung: linger for it
        pump = coordinator_thread(coord, box, max_seconds=60,
                                  linger=8.0)
        chaos = ChaosPlan([ChaosRule("hang", cell="3:dfs:0",
                                     after_schedules=30,
                                     seconds=4.0)])
        sleeper = spawn_worker(queue, "sleeper", chaos)
        wait_for(lambda: coord._leases, what="sleeper's lease")
        backup = spawn_worker(queue, "backup")
        try:
            pump.join(timeout=60)
            assert not pump.is_alive(), "campaign never finished"
            sleeper.join(timeout=30)
            backup.join(timeout=30)
        finally:
            server.close()
            for proc in (sleeper, backup):
                if proc.is_alive():
                    proc.terminate()
        assert coord.num_expired >= 1
        assert distributed_canonical(box["result"], limits) == expected
