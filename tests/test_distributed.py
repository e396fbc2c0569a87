"""Unit tests for the distributed-campaign building blocks.

The coordinator is a synchronous state machine (``handle`` maps one
message dict to one reply dict, clock injected), so the lease
lifecycle, dedup rules, stale-holder rules, stealing, poisoning and
crash-resume are all tested here without processes or sockets.  The
transports get small threaded echo tests; the full kill-a-worker
integration lives in ``test_campaign_chaos.py``.
"""

import threading

import pytest

from repro.campaign import (
    CampaignCell,
    CellResult,
    ChaosError,
    ChaosPlan,
    ChaosRule,
    canonical_report_dict,
    execute_cell,
    execute_cell_with_watchdog,
    merge_stolen_results,
)
from repro.campaign.distributed import (
    Coordinator,
    DistributedWorker,
    FileCoordinatorServer,
    FileWorkerChannel,
    TcpCoordinatorServer,
    TcpWorkerChannel,
    Task,
    TransportError,
)
from repro.campaign.distributed import messages as M
from repro.campaign.distributed.coordinator import EXACT_STEAL_EXPLORERS
from repro.campaign.distributed.transport import parse_hostport
from repro.clock import ManualClock
from repro.explore.base import ExplorationLimits

LIMITS = ExplorationLimits(max_schedules=500)


@pytest.fixture(scope="module")
def result_5_dfs():
    return execute_cell(CampaignCell(5, "dfs", 0), LIMITS)


@pytest.fixture(scope="module")
def result_1_dfs():
    return execute_cell(CampaignCell(1, "dfs", 0), LIMITS)


def make_coord(cells=((5, "dfs", 0),), clock=None, **kw):
    cells = [CampaignCell(*c) for c in cells]
    kw.setdefault("lease_timeout", 10.0)
    return Coordinator(cells, LIMITS, clock=clock or ManualClock(100.0), **kw)


def req(worker):
    return {"type": M.REQUEST, "worker": worker}


def hb(worker, task_id, schedules=0):
    return {"type": M.HEARTBEAT, "worker": worker, "task_id": task_id,
            "schedules": schedules}


def result_msg(worker, task_id, result, partial=None):
    return {"type": M.RESULT, "worker": worker, "task_id": task_id,
            "result": result.to_dict(), "partial": partial}


class TestHello:
    def test_protocol_mismatch_rejected(self):
        coord = make_coord()
        reply = coord.handle({"type": M.HELLO, "worker": "w1",
                              "protocol": 999})
        assert reply["type"] == M.ERROR
        assert "protocol mismatch" in reply["error"]

    def test_hello_carries_campaign_config(self):
        coord = make_coord(verify=False)
        reply = coord.handle({"type": M.HELLO, "worker": "w1",
                              "protocol": M.PROTOCOL_VERSION})
        assert reply["type"] == M.OK
        assert reply["limits"]["max_schedules"] == LIMITS.max_schedules
        assert reply["verify"] is False
        assert reply["lease_timeout"] == 10.0
        assert reply["heartbeat_interval"] == pytest.approx(2.5)

    def test_worker_reads_hello_with_retired_snapshot_field(self):
        """An older coordinator's hello still carries
        ``snapshot_budget_bytes``; the worker ignores it."""
        reply = make_coord().handle({"type": M.HELLO, "worker": "w1",
                                     "protocol": M.PROTOCOL_VERSION})
        reply["snapshot_budget_bytes"] = 0

        class Channel:
            worker_id = "w1"

            def request(self, msg, **kw):
                return reply

        worker = DistributedWorker(Channel())
        worker.hello()
        assert worker.limits == LIMITS
        assert worker.lease_timeout == 10.0

    def test_heartbeat_interval_is_clamped(self):
        assert make_coord(lease_timeout=100.0).handle(
            {"type": M.HELLO, "worker": "w", "protocol":
             M.PROTOCOL_VERSION})["heartbeat_interval"] == 5.0
        assert make_coord(lease_timeout=0.1).handle(
            {"type": M.HELLO, "worker": "w", "protocol":
             M.PROTOCOL_VERSION})["heartbeat_interval"] == 0.05

    def test_unknown_message_type(self):
        reply = make_coord().handle({"type": "frobnicate", "worker": "w"})
        assert reply["type"] == M.ERROR

    def test_missing_worker_id(self):
        reply = make_coord().handle({"type": M.REQUEST})
        assert reply["type"] == M.ERROR


class TestLeaseLifecycle:
    def test_grant_execute_complete(self, result_5_dfs):
        coord = make_coord()
        reply = coord.handle(req("w1"))
        assert reply["type"] == M.LEASE
        assert reply["task"]["task_id"] == "5:dfs:0"
        assert reply["task"]["attempt"] == 0
        # only one task: a second worker idles
        assert coord.handle(req("w2"))["type"] == M.IDLE
        assert coord.handle(
            result_msg("w1", "5:dfs:0", result_5_dfs))["type"] == M.OK
        assert coord.done
        assert coord.num_executed == 1
        assert coord.handle(req("w1"))["type"] == M.SHUTDOWN
        final = coord.result()
        assert final.results[0].ok
        assert final.results[0].stats.num_schedules == \
            result_5_dfs.stats.num_schedules

    def test_expired_lease_is_requeued_with_attempt_bump(self):
        clock = ManualClock(100.0)
        coord = make_coord(clock=clock)
        assert coord.handle(req("w1"))["type"] == M.LEASE
        clock.advance(coord.lease_timeout + 1.0)
        reply = coord.handle(req("w2"))
        assert reply["type"] == M.LEASE
        assert reply["task"]["task_id"] == "5:dfs:0"
        assert reply["task"]["attempt"] == 1
        assert coord.num_expired == 1

    def test_heartbeat_renews_the_lease(self):
        clock = ManualClock(100.0)
        coord = make_coord(clock=clock)
        coord.handle(req("w1"))
        for _ in range(4):
            clock.advance(0.9 * coord.lease_timeout)
            assert not coord.handle(
                hb("w1", "5:dfs:0", schedules=7)).get("abandon")
        # still leased: another worker has nothing to grab
        assert coord.handle(req("w2"))["type"] == M.IDLE
        assert coord.num_expired == 0

    def test_heartbeat_from_non_holder_is_abandoned(self):
        coord = make_coord()
        coord.handle(req("w1"))
        assert coord.handle(hb("w2", "5:dfs:0")).get("abandon") is True

    def test_heartbeat_for_unknown_task_is_abandoned(self):
        coord = make_coord()
        assert coord.handle(hb("w1", "9:dfs:9")).get("abandon") is True


class TestDedupAndStaleHolders:
    def test_duplicate_result_is_acknowledged_once(self, result_5_dfs):
        coord = make_coord()
        coord.handle(req("w1"))
        msg = result_msg("w1", "5:dfs:0", result_5_dfs)
        assert coord.handle(msg)["type"] == M.OK
        dup = coord.handle(msg)
        assert dup.get("duplicate") is True
        assert coord.num_executed == 1
        assert coord.num_duplicates == 1

    def test_stale_ok_result_accepted_when_no_steals(self, result_5_dfs):
        # w1's lease expires, w2 picks the task up — then w1's result
        # arrives late.  Statistics are cumulative, so it covers the
        # whole cell: accept it and cancel w2's duplicate attempt.
        clock = ManualClock(100.0)
        coord = make_coord(clock=clock)
        coord.handle(req("w1"))
        clock.advance(coord.lease_timeout + 1.0)
        assert coord.handle(req("w2"))["type"] == M.LEASE
        assert coord.handle(
            result_msg("w1", "5:dfs:0", result_5_dfs))["type"] == M.OK
        assert coord.done
        assert coord.num_executed == 1
        # w2's lease was cancelled with the acceptance
        assert coord.handle(hb("w2", "5:dfs:0")).get("abandon") is True

    def test_stale_failed_result_does_not_burn_a_retry(self):
        clock = ManualClock(100.0)
        coord = make_coord(clock=clock)
        coord.handle(req("w1"))
        clock.advance(coord.lease_timeout + 1.0)
        coord.handle(req("w2"))  # expiry counts retry #1, regrants
        failed = CellResult(CampaignCell(5, "dfs", 0), None, ok=False,
                            error="boom")
        reply = coord.handle(result_msg("w1", "5:dfs:0", failed))
        assert reply.get("duplicate") is True
        # the live attempt keeps its lease and no retry was charged
        assert not coord.handle(hb("w2", "5:dfs:0")).get("abandon")
        assert coord._book["5:dfs:0"].retries == 1

    def test_stale_result_rejected_after_a_steal(self, result_5_dfs):
        clock = ManualClock(100.0)
        coord = make_coord(clock=clock)
        coord.handle(req("w1"))
        clock.advance(coord.lease_timeout + 1.0)
        coord.handle(req("w2"))
        # a steal was granted on this task at some point: the stale
        # attempt's frontier no longer covers the donated subtrees
        coord._steals_granted["5:dfs:0"] = 1
        reply = coord.handle(result_msg("w1", "5:dfs:0", result_5_dfs))
        assert reply.get("abandon") is True
        assert coord.num_executed == 0


class TestCheckpoints:
    SNAP = {"version": 1, "explorer": "dfs", "program": "p",
            "frontier": {"items": []}, "stats": {"num_schedules": 7},
            "strategy": {}}

    def test_checkpoint_resumes_next_attempt(self):
        clock = ManualClock(100.0)
        coord = make_coord(clock=clock)
        coord.handle(req("w1"))
        assert coord.handle(
            {"type": M.CHECKPOINT, "worker": "w1", "task_id": "5:dfs:0",
             "snapshot": self.SNAP, "schedules": 7})["type"] == M.OK
        clock.advance(coord.lease_timeout + 1.0)
        reply = coord.handle(req("w2"))
        assert reply["type"] == M.LEASE
        assert reply["task"]["snapshot"] == self.SNAP

    def test_checkpoint_from_non_holder_is_abandoned(self):
        coord = make_coord()
        coord.handle(req("w1"))
        reply = coord.handle(
            {"type": M.CHECKPOINT, "worker": "w2", "task_id": "5:dfs:0",
             "snapshot": self.SNAP})
        assert reply.get("abandon") is True
        # and the snapshot was NOT taken
        assert "5:dfs:0" not in coord._checkpoints

    def test_checkpoint_renews_the_lease(self):
        clock = ManualClock(100.0)
        coord = make_coord(clock=clock)
        coord.handle(req("w1"))
        clock.advance(0.9 * coord.lease_timeout)
        coord.handle({"type": M.CHECKPOINT, "worker": "w1",
                      "task_id": "5:dfs:0", "snapshot": self.SNAP})
        clock.advance(0.5 * coord.lease_timeout)
        assert coord.handle(req("w2"))["type"] == M.IDLE  # not expired


class TestAdoption:
    def test_heartbeat_adopts_pending_task_after_restart(self,
                                                         result_5_dfs):
        # a restarted coordinator persists leases as *pending* tasks; a
        # live worker heartbeating one is adopted, not abandoned
        coord = make_coord()
        assert "5:dfs:0" in coord._pending
        reply = coord.handle(hb("w1", "5:dfs:0", schedules=3))
        assert not reply.get("abandon")
        assert coord.num_adopted == 1
        assert coord.handle(req("w2"))["type"] == M.IDLE
        assert coord.handle(
            result_msg("w1", "5:dfs:0", result_5_dfs))["type"] == M.OK
        assert coord.done

    def test_checkpoint_adopts_too(self):
        coord = make_coord()
        reply = coord.handle(
            {"type": M.CHECKPOINT, "worker": "w1", "task_id": "5:dfs:0",
             "snapshot": TestCheckpoints.SNAP})
        assert not reply.get("abandon")
        assert coord.num_adopted == 1
        assert coord._checkpoints["5:dfs:0"] == TestCheckpoints.SNAP


class TestStealing:
    SHARD = {"version": 1, "explorer": "dfs", "program": "p",
             "frontier": {"items": [1]}, "stats": None, "strategy": {}}

    def _coord_with_victim(self):
        clock = ManualClock(100.0)
        coord = make_coord(clock=clock)
        coord.handle(req("w1"))
        clock.advance(1.0)  # past steal_min_age
        assert coord.handle(req("w2"))["type"] == M.IDLE  # registers idle
        return coord, clock

    def test_steal_command_rides_the_heartbeat(self):
        coord, _ = self._coord_with_victim()
        reply = coord.handle(hb("w1", "5:dfs:0"))
        steal = reply.get("steal")
        assert steal is not None
        assert steal["steal_id"] == 1
        assert steal["max_shards"] >= 1

    def test_stolen_shards_become_pending_tasks(self):
        coord, _ = self._coord_with_victim()
        coord.handle(hb("w1", "5:dfs:0"))
        post = dict(TestCheckpoints.SNAP)
        reply = coord.handle(
            {"type": M.STOLEN, "worker": "w1", "task_id": "5:dfs:0",
             "steal_id": 1, "shards": [self.SHARD, self.SHARD],
             "snapshot": post})
        assert reply["shards_accepted"] == 2
        assert coord.num_steals == 1
        assert len(coord._pending) == 2
        assert all(t.startswith("5:dfs:0@steal1-")
                   for t in coord._pending)
        # the post-steal snapshot is now the authoritative checkpoint
        assert coord._checkpoints["5:dfs:0"] == post
        # the steal command stops riding heartbeats
        assert "steal" not in coord.handle(hb("w1", "5:dfs:0"))

    def test_duplicate_stolen_message_is_dropped(self):
        coord, _ = self._coord_with_victim()
        coord.handle(hb("w1", "5:dfs:0"))
        msg = {"type": M.STOLEN, "worker": "w1", "task_id": "5:dfs:0",
               "steal_id": 1, "shards": [self.SHARD], "snapshot": None}
        coord.handle(msg)
        assert coord.handle(dict(msg)).get("duplicate") is True
        assert len(coord._pending) == 1  # not enqueued twice

    def test_stolen_from_stale_holder_is_dropped(self):
        coord, clock = self._coord_with_victim()
        coord.handle(hb("w1", "5:dfs:0"))
        clock.advance(coord.lease_timeout + 1.0)
        coord.handle(req("w3"))  # expires w1, regrants to w3
        reply = coord.handle(
            {"type": M.STOLEN, "worker": "w1", "task_id": "5:dfs:0",
             "steal_id": 1, "shards": [self.SHARD], "snapshot": None})
        assert reply.get("abandon") is True
        assert coord.num_steals == 0

    def test_no_steal_for_inexact_strategies(self):
        assert "random" not in EXACT_STEAL_EXPLORERS
        clock = ManualClock(100.0)
        coord = make_coord(cells=((5, "random", 0),), clock=clock)
        coord.handle(req("w1"))
        clock.advance(1.0)
        coord.handle(req("w2"))
        assert "steal" not in coord.handle(hb("w1", "5:random:0"))

    def test_no_steal_when_disabled(self):
        clock = ManualClock(100.0)
        coord = make_coord(clock=clock, steal=False)
        coord.handle(req("w1"))
        clock.advance(1.0)
        coord.handle(req("w2"))
        assert "steal" not in coord.handle(hb("w1", "5:dfs:0"))


class TestPoisonQuarantine:
    def test_repeated_expiry_poisons_the_cell(self):
        clock = ManualClock(100.0)
        coord = make_coord(clock=clock, max_cell_retries=1)
        coord.handle(req("w1"))
        clock.advance(coord.lease_timeout + 1.0)
        assert coord.handle(req("w2"))["type"] == M.LEASE  # retry #1
        clock.advance(coord.lease_timeout + 1.0)
        assert coord.handle(req("w1"))["type"] == M.SHUTDOWN  # poisoned
        assert coord.done
        cell = coord.result().results[0]
        assert not cell.ok
        assert "quarantined after 2 failed attempts" in cell.error
        diag = cell.diagnostics
        assert diag["status"] == "quarantined"
        assert diag["retries"] == 2
        assert diag["workers"] == ["w1", "w2"]
        assert diag["last_failure"] == "lease_expired"
        assert "lease expired" in diag["traceback"]

    def test_failed_results_poison_too(self):
        coord = make_coord(max_cell_retries=0)
        coord.handle(req("w1"))
        failed = CellResult(CampaignCell(5, "dfs", 0), None, ok=False,
                            error="ZeroDivisionError: boom")
        coord.handle(result_msg("w1", "5:dfs:0", failed))
        cell = coord.result().results[0]
        assert not cell.ok
        assert cell.diagnostics["status"] == "quarantined"
        assert "ZeroDivisionError" in cell.diagnostics["traceback"]

    def test_poisoned_holder_is_abandoned(self):
        coord = make_coord(max_cell_retries=0, cells=((5, "dfs", 0),
                                                      (1, "dfs", 0)))
        coord.handle(req("w1"))
        failed = CellResult(CampaignCell(5, "dfs", 0), None, ok=False,
                            error="boom")
        coord.handle(result_msg("w1", "5:dfs:0", failed))
        # any worker still computing the poisoned cell gets told so
        assert coord.handle(hb("w2", "5:dfs:0")).get("abandon") is True


class TestStatePersistence:
    def test_kill_and_resume_round_trip(self, tmp_path, result_5_dfs,
                                        result_1_dfs):
        state = str(tmp_path / "coord-state.json")
        cells = ((5, "dfs", 0), (1, "dfs", 0))
        a = make_coord(cells=cells, state_path=state)
        a.handle(req("w1"))  # leases 5:dfs:0
        a.handle(result_msg("w1", "5:dfs:0", result_5_dfs))
        a.handle(req("w2"))  # leases 1:dfs:0
        a.handle({"type": M.CHECKPOINT, "worker": "w2",
                  "task_id": "1:dfs:0",
                  "snapshot": TestCheckpoints.SNAP})
        a.flush_state()

        b = make_coord(cells=cells, state_path=state)
        assert not b.state_discarded
        assert not b.done
        assert b.num_executed == 1
        # the completed cell was re-merged from persisted results
        assert b.result().results[0].ok
        # the in-flight lease came back as pending work with its
        # streamed checkpoint intact
        assert b._pending == ["1:dfs:0"]
        assert b._checkpoints["1:dfs:0"] == TestCheckpoints.SNAP
        # the still-live worker is adopted and finishes the campaign
        assert not b.handle(hb("w2", "1:dfs:0")).get("abandon")
        assert b.num_adopted == 1
        b.handle(result_msg("w2", "1:dfs:0", result_1_dfs))
        assert b.done

    def test_poison_survives_restart(self, tmp_path):
        state = str(tmp_path / "coord-state.json")
        a = make_coord(state_path=state, max_cell_retries=0)
        a.handle(req("w1"))
        a.handle(result_msg("w1", "5:dfs:0", CellResult(
            CampaignCell(5, "dfs", 0), None, ok=False, error="boom")))
        assert a.done
        a.flush_state()
        b = make_coord(state_path=state, max_cell_retries=0)
        assert b.done
        assert b.result().results[0].diagnostics["status"] == \
            "quarantined"

    def test_incompatible_state_is_discarded(self, tmp_path):
        state = str(tmp_path / "coord-state.json")
        make_coord(cells=((5, "dfs", 0),),
                   state_path=state).flush_state()
        b = make_coord(cells=((1, "dfs", 0),), state_path=state)
        assert b.state_discarded
        assert b._pending == ["1:dfs:0"]  # fresh queue, nothing mixed

    def test_garbage_state_file_starts_fresh(self, tmp_path):
        state = tmp_path / "coord-state.json"
        state.write_text("{ torn")
        b = make_coord(state_path=str(state))
        assert b._pending == ["5:dfs:0"]


def _serve(server, stop):
    while not stop.is_set():
        for msg, reply in server.poll(0.02):
            reply({"type": M.OK, "echo": msg})


class TestTransports:
    def _round_trip(self, server, channel):
        stop = threading.Event()
        t = threading.Thread(target=_serve, args=(server, stop),
                             daemon=True)
        t.start()
        try:
            for n in range(3):
                reply = channel.request({"type": "ping", "n": n},
                                        timeout=5.0)
                assert reply["type"] == M.OK
                assert reply["echo"]["n"] == n
                assert reply["echo"]["worker"] == channel.worker_id
        finally:
            stop.set()
            t.join(timeout=5.0)
            channel.close()
            server.close()

    def test_tcp_round_trip(self):
        server = TcpCoordinatorServer("127.0.0.1", 0)
        host, port = server.address
        self._round_trip(server, TcpWorkerChannel(host, port, "w-tcp"))

    def test_file_round_trip(self, tmp_path):
        server = FileCoordinatorServer(tmp_path / "q")
        self._round_trip(server,
                         FileWorkerChannel(tmp_path / "q", "w-file"))

    def test_file_channel_times_out_without_coordinator(self, tmp_path):
        channel = FileWorkerChannel(tmp_path / "q", "w-alone")
        with pytest.raises(TransportError):
            channel.request({"type": "ping"}, timeout=0.05,
                            max_attempts=2)

    def test_tcp_channel_fails_without_coordinator(self):
        channel = TcpWorkerChannel("127.0.0.1", 1, "w-alone")
        with pytest.raises(TransportError):
            channel.request({"type": "ping"}, timeout=0.05,
                            max_attempts=1)

    def test_parse_hostport(self):
        assert parse_hostport("10.0.0.1:99") == ("10.0.0.1", 99)
        assert parse_hostport(":99") == ("127.0.0.1", 99)
        assert parse_hostport("somehost", 7777) == ("somehost", 7777)


class TestChaosPlan:
    def test_round_trip(self):
        plan = ChaosPlan([
            ChaosRule("kill", cell="3:dfs:0", after_schedules=40),
            ChaosRule("partition", worker="w1", seconds=2.0, times=-1),
        ])
        again = ChaosPlan.from_dict(plan.to_dict())
        assert [r.to_dict() for r in again.rules] == \
            [r.to_dict() for r in plan.rules]

    def test_dump_load(self, tmp_path):
        path = tmp_path / "plan.json"
        ChaosPlan([ChaosRule("hang", seconds=1.0)]).dump(path)
        assert ChaosPlan.load(path).rules[0].action == "hang"

    def test_unknown_action_rejected(self):
        with pytest.raises(ValueError):
            ChaosRule("explode")

    def test_match_respects_threshold_and_times(self):
        plan = ChaosPlan([ChaosRule("fail", after_schedules=10)])
        assert plan.match("w", "c", 9) is None
        assert plan.match("w", "c", 10) is not None
        assert plan.match("w", "c", 11) is None  # times=1 exhausted

    def test_match_filters_worker_and_cell(self):
        plan = ChaosPlan([ChaosRule("fail", cell="3:dfs:0",
                                    worker="w1", times=-1)])
        assert plan.match("w2", "3:dfs:0", 0) is None
        assert plan.match("w1", "5:dfs:0", 0) is None
        assert plan.match("w1", "3:dfs:0", 0) is not None

    def test_probe_fail_raises(self):
        plan = ChaosPlan([ChaosRule("fail")])
        with pytest.raises(ChaosError):
            plan.probe("w", "c", 0)

    def test_probe_partition_returned_to_caller(self):
        plan = ChaosPlan([ChaosRule("partition", seconds=3.0)])
        rule = plan.probe("w", "c", 0)
        assert rule is not None
        assert rule.action == "partition"
        assert rule.seconds == 3.0


class TestDiagnostics:
    def test_cell_result_diagnostics_round_trip(self):
        diag = {"status": "quarantined", "retries": 3,
                "workers": ["w1", "w2"], "traceback": "...",
                "last_checkpoint_depth": 42}
        result = CellResult(CampaignCell(3, "dfs", 0), None, ok=False,
                            error="boom", diagnostics=diag)
        payload = result.to_dict()
        assert payload["diagnostics"] == diag
        assert CellResult.from_dict(payload).diagnostics == diag

    def test_healthy_cells_omit_diagnostics_key(self, result_5_dfs):
        assert "diagnostics" not in result_5_dfs.to_dict()
        assert CellResult.from_dict(
            result_5_dfs.to_dict()).diagnostics is None

    def test_watchdog_reports_timed_out(self):
        import time as _time
        hung = {"done": False}

        def wedge(explorer):
            if not hung["done"]:
                hung["done"] = True
                _time.sleep(3.0)

        result = execute_cell_with_watchdog(
            CampaignCell(1, "dfs", 0), LIMITS, hard_timeout=0.3,
            control_fn=wedge)
        assert not result.ok
        assert result.diagnostics["status"] == "timed_out"
        assert "hard watchdog" in result.error


class TestCanonicalReport:
    def test_strips_provenance_not_results(self):
        report = {
            "kind": "repro-campaign-report", "version": 1,
            "summary": {"num_cells": 1, "num_executed": 1,
                        "num_cached": 0, "num_failed": 0,
                        "num_unexpected": 0, "total_schedules": 12,
                        "total_events": 99, "jobs": 3, "elapsed": 1.5},
            "campaign": {"distributed": True},
            "cells": [{"bench_id": 5, "explorer": "dfs", "seed": 0,
                       "ok": True, "error": None,
                       "stats": {"num_schedules": 12, "elapsed": 0.4,
                                 "extra": {"dist_stolen_shards": 2,
                                           "real_metric": 7}}}],
        }
        canon = canonical_report_dict(report)
        assert "campaign" not in canon
        assert "jobs" not in canon["summary"]
        assert "elapsed" not in canon["summary"]
        assert canon["summary"]["total_schedules"] == 12
        stats = canon["cells"][0]["stats"]
        assert "elapsed" not in stats
        assert stats["extra"] == {"real_metric": 7}
        assert stats["num_schedules"] == 12

    def test_serial_and_distributed_views_agree(self):
        serial = {"summary": {"jobs": 1, "elapsed": 9.0,
                              "num_executed": 2, "num_cached": 0,
                              "num_failed": 0},
                  "cells": [{"ok": True, "stats": {"num_schedules": 5,
                                                   "elapsed": 1.0,
                                                   "extra": {}}}]}
        dist = {"summary": {"jobs": 4, "elapsed": 2.0,
                            "num_executed": 1, "num_cached": 1,
                            "num_failed": 0},
                "campaign": {"distributed": True},
                "cells": [{"ok": True, "stats": {
                    "num_schedules": 5, "elapsed": 0.2,
                    "extra": {"dist_stolen_shards": 1}}}]}
        assert canonical_report_dict(serial) == \
            canonical_report_dict(dist)


class TestMergeStolenResults:
    def test_counters_sum_and_sets_union(self, result_5_dfs):
        shard = CellResult.from_dict(result_5_dfs.to_dict())
        merged = merge_stolen_results(result_5_dfs, [shard])
        assert merged.ok
        assert merged.stats.num_schedules == \
            2 * result_5_dfs.stats.num_schedules
        assert merged.stats.state_hashes == \
            result_5_dfs.stats.state_hashes
        assert merged.stats.hbr_fps == result_5_dfs.stats.hbr_fps
        assert merged.stats.extra["dist_stolen_shards"] == 1
        # the parent result object was not mutated by the merge
        assert "dist_stolen_shards" not in result_5_dfs.stats.extra

    def test_failed_shard_fails_the_cell(self, result_5_dfs):
        bad = CellResult(result_5_dfs.cell, None, ok=False,
                         error="shard died",
                         diagnostics={"status": "quarantined"})
        merged = merge_stolen_results(result_5_dfs, [bad])
        assert not merged.ok
        assert merged.error == "shard died"
        assert merged.diagnostics == {"status": "quarantined"}


class TestTaskWire:
    def test_round_trip(self):
        task = Task("5:dfs:0@steal1-0", "5:dfs:0",
                    snapshot={"x": 1}, attempt=2)
        again = Task.from_dict(task.to_dict())
        assert again == task
        assert again.is_shard
        assert again.cell == CampaignCell(5, "dfs", 0)
        assert not Task("5:dfs:0", "5:dfs:0").is_shard
