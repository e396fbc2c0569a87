"""Tests for the parallel campaign subsystem: work-list construction,
cell execution, serial/parallel determinism, checkpoint/resume, and the
``repro campaign`` CLI."""

import dataclasses
import json

import pytest

from repro.__main__ import main
from repro.campaign import (
    CampaignCell,
    CampaignReport,
    CellResult,
    ResultStore,
    build_cells,
    campaign_report,
    comparison_rows,
    execute_cell,
    matrix_report,
    run_campaign,
)
from repro.analysis.runner import (
    figure2_rows_from_cells,
    figure3_rows_from_cells,
    run_figure2,
    run_figure3,
)
from repro.campaign.aggregate import merge_shard_results
from repro.campaign.partial import read_partial
from repro.explore import ExplorationLimits, ExplorationStats, make_explorer
from repro.suite import REGISTRY

LIMITS = ExplorationLimits(max_schedules=120)


def stats_dicts(results, drop=("elapsed",)):
    """Comparable per-cell stats with wall-clock fields removed."""
    out = []
    for r in results:
        d = r.to_dict()
        if d["stats"] is not None:
            d["stats"] = {k: v for k, v in d["stats"].items()
                          if k not in drop}
        out.append(d)
    return out


class TestBuildCells:
    def test_deterministic_explorers_do_not_fan_out(self):
        cells = build_cells([1], ["dpor", "random"], seeds=3)
        assert [c.key for c in cells] == [
            "1:dpor:0", "1:random:0", "1:random:1", "1:random:2",
        ]

    def test_duplicates_collapse(self):
        cells = build_cells([1, 1], ["dpor", "dpor"])
        assert cells == [CampaignCell(1, "dpor", 0)]

    def test_unknown_explorer_rejected_eagerly(self):
        with pytest.raises(KeyError):
            build_cells([1], ["nope"])

    def test_bad_seed_count_rejected(self):
        with pytest.raises(ValueError):
            build_cells([1], ["dpor"], seeds=0)

    def test_key_round_trip(self):
        cell = CampaignCell(42, "lazy-hbr-caching", 7)
        assert CampaignCell.from_key(cell.key) == cell


class TestSeedThreading:
    """STANDARD_EXPLORERS must thread seeds into the randomized
    strategies (previously hardcoded to 0)."""

    def test_randomized_explorers_receive_seed(self):
        for name in ("random", "pct"):
            ex = make_explorer(name, REGISTRY[1].program, LIMITS, seed=7)
            assert ex.seed == 7

    def test_default_seed_is_zero(self):
        ex = make_explorer("random", REGISTRY[1].program, LIMITS)
        assert ex.seed == 0

    def test_distinct_seeds_schedule_differently(self):
        # on a racy program, two random walks with different seeds pick
        # different schedules; the error-witness schedules differ
        lim = ExplorationLimits(max_schedules=5)
        runs = {
            seed: make_explorer(
                "random", REGISTRY[47].program, lim, seed=seed
            ).run()
            for seed in (0, 1)
        }
        sched0 = [e.schedule for e in runs[0].errors]
        sched1 = [e.schedule for e in runs[1].errors]
        assert sched0 != sched1


class TestExecuteCell:
    def test_ok_cell(self):
        res = execute_cell(CampaignCell(1, "dpor"), LIMITS)
        assert res.ok and res.error is None
        assert res.stats.num_hbrs == 2
        assert res.stats.num_lazy_hbrs == 1

    def test_unknown_benchmark_is_failure_not_exception(self):
        res = execute_cell(CampaignCell(999, "dpor"), LIMITS)
        assert not res.ok
        assert "999" in res.error
        assert res.stats is None

    def test_unknown_explorer_is_failure_not_exception(self):
        res = execute_cell(CampaignCell(1, "nope"), LIMITS)
        assert not res.ok
        assert "KeyError" in res.error

    def test_expected_findings_are_not_unexpected(self):
        deadlock = execute_cell(CampaignCell(36, "dpor"), LIMITS)
        assert deadlock.ok and deadlock.stats.errors
        assert not deadlock.unexpected_findings

    def test_result_round_trips_through_json(self):
        res = execute_cell(CampaignCell(36, "dpor"), LIMITS)
        clone = type(res).from_dict(json.loads(json.dumps(res.to_dict())))
        assert clone.cell == res.cell
        assert clone.stats.to_dict() == res.stats.to_dict()

    def test_budget_limited_cell_without_sink_takes_no_snapshot(self):
        res = execute_cell(CampaignCell(3, "dfs"),
                           ExplorationLimits(max_schedules=30))
        assert res.ok and res.stats.limit_hit
        assert res.partial is None

    def test_budget_limited_cell_writes_final_snapshot(self, tmp_path):
        cell = CampaignCell(3, "dfs")
        tight = ExplorationLimits(max_schedules=30)
        path = tmp_path / "cell.json"
        res = execute_cell(cell, tight, checkpoint_path=str(path))
        assert res.stats.limit_hit
        assert res.partial is not None
        assert read_partial(path, cell.key, tight) == res.partial
        lax = ExplorationLimits(max_schedules=100_000)
        resumed = execute_cell(cell, lax, resume_state=res.partial).stats
        reference = execute_cell(cell, lax).stats
        assert resumed.num_schedules == reference.num_schedules
        assert resumed.hbr_fps == reference.hbr_fps
        assert resumed.state_hashes == reference.state_hashes
        assert resumed.exhausted

    def test_only_lazy_dpor_cells_are_labelled_approximate(self):
        # the key is left out for exact explorers, so reports of the
        # default campaign keep their shape
        lazy = execute_cell(CampaignCell(1, "lazy-dpor"), LIMITS).to_dict()
        assert lazy["approximate"] is True
        for explorer in ("dpor", "hbr-caching", "lazy-hbr-caching", "dfs"):
            d = execute_cell(CampaignCell(1, explorer), LIMITS).to_dict()
            assert "approximate" not in d, explorer
        report = campaign_report(
            run_campaign(build_cells([1], ["dpor", "lazy-dpor"]), LIMITS,
                         jobs=1),
            LIMITS,
        ).to_dict()
        labels = {c["explorer"]: c.get("approximate")
                  for c in report["cells"]}
        assert labels == {"dpor": None, "lazy-dpor": True}
        clone = CellResult.from_dict(json.loads(json.dumps(lazy)))
        assert clone.to_dict()["approximate"] is True


class TestProgress:
    def test_progress_callback(self):
        seen = []
        run_campaign(build_cells([1, 3], ["dpor"]),
                     ExplorationLimits(max_schedules=100),
                     progress=seen.append)
        # one line per executed cell, in work-list order
        assert len(seen) == 2
        assert "figure1" in seen[0]


class TestDeterminism:
    CELLS = build_cells([1, 3, 36, 47], ["dpor", "lazy-hbr-caching",
                                         "random"], seeds=2)

    def test_jobs1_vs_jobs4_identical_stats(self):
        serial = run_campaign(self.CELLS, LIMITS, jobs=1)
        parallel = run_campaign(self.CELLS, LIMITS, jobs=4)
        assert stats_dicts(serial.results) == stats_dicts(parallel.results)

    def test_jobs1_vs_jobs4_identical_reports(self):
        serial = run_campaign(self.CELLS, LIMITS, jobs=1)
        parallel = run_campaign(self.CELLS, LIMITS, jobs=4)
        assert (matrix_report(comparison_rows(serial.results))
                == matrix_report(comparison_rows(parallel.results)))

    def test_figure_rows_identical_serial_vs_parallel(self):
        subset = [REGISTRY[i] for i in (1, 3, 11, 36)]
        assert (run_figure2(subset, schedule_limit=120)
                == run_figure2(subset, schedule_limit=120, jobs=4))
        assert (run_figure3(subset, schedule_limit=120)
                == run_figure3(subset, schedule_limit=120, jobs=4))

    def test_duplicate_benchmarks_get_one_row_each(self):
        # the pre-campaign serial loop produced one row per entry;
        # duplicates must not collapse through the cell work-list
        rows = run_figure2([REGISTRY[1], REGISTRY[1]], schedule_limit=60,
                           jobs=2)
        assert len(rows) == 2
        assert rows[0] == rows[1]

    def test_non_registry_benchmark_rejected(self):
        # cells name benchmarks by id, so a look-alike of a suite
        # entry would silently run the registry's program instead
        twin = dataclasses.replace(REGISTRY[1])
        with pytest.raises(ValueError, match="registry"):
            run_figure2([twin], schedule_limit=60)

    def test_figure_rows_from_cells_match_harness(self):
        subset = [REGISTRY[i] for i in (1, 3, 11)]
        cells = build_cells(
            [b.bench_id for b in subset],
            ["dpor", "hbr-caching", "lazy-hbr-caching"],
        )
        campaign = run_campaign(cells, LIMITS, jobs=2)
        assert (figure2_rows_from_cells(campaign.results)
                == run_figure2(subset, schedule_limit=120))
        assert (figure3_rows_from_cells(campaign.results)
                == run_figure3(subset, schedule_limit=120))


class TestCheckpointResume:
    CELLS = build_cells([1, 36], ["dpor", "random"], seeds=2)

    def test_round_trip(self, tmp_path):
        path = tmp_path / "ckpt.json"
        first = run_campaign(self.CELLS, LIMITS, jobs=1,
                             store=ResultStore(path))
        assert first.num_executed == len(self.CELLS)

        resumed = run_campaign(self.CELLS, LIMITS, jobs=1,
                               store=ResultStore(path))
        assert resumed.num_executed == 0
        assert resumed.num_cached == len(self.CELLS)
        assert all(r.cached for r in resumed.results)
        assert stats_dicts(first.results) == stats_dicts(resumed.results)

    def test_partial_checkpoint_runs_only_missing_cells(self, tmp_path):
        path = tmp_path / "ckpt.json"
        store = ResultStore(path)
        run_campaign(self.CELLS[:2], LIMITS, store=store)

        rest = run_campaign(self.CELLS, LIMITS, store=ResultStore(path))
        assert rest.num_cached == 2
        assert rest.num_executed == len(self.CELLS) - 2

    @pytest.mark.parametrize("content", [
        "[1, 2, 3]",                                   # wrong shape
        '{"version": 2, "cells": {"1:dpor:0": {}}}',   # malformed cell
        '{"version": 2, "cells": "nope"}',             # wrong cells type
    ])
    def test_foreign_json_checkpoint_treated_as_fresh(self, tmp_path,
                                                      content):
        path = tmp_path / "ckpt.json"
        path.write_text(content)
        store = ResultStore(path)
        assert store.load() == 0
        campaign = run_campaign(self.CELLS, LIMITS, store=store)
        assert campaign.num_executed == len(self.CELLS)

    def test_corrupt_checkpoint_treated_as_fresh(self, tmp_path):
        path = tmp_path / "ckpt.json"
        path.write_text("{ not json")
        store = ResultStore(path)
        assert store.load() == 0
        campaign = run_campaign(self.CELLS, LIMITS, store=store)
        assert campaign.num_executed == len(self.CELLS)
        # and the store has been rewritten as a valid checkpoint
        from repro.campaign.store import STORE_VERSION
        assert json.loads(path.read_text())["version"] == STORE_VERSION

    def test_failed_cells_not_checkpointed(self, tmp_path):
        path = tmp_path / "ckpt.json"
        bad = [CampaignCell(999, "dpor")]
        run_campaign(bad, LIMITS, store=ResultStore(path))
        store = ResultStore(path)
        assert store.load() == 0  # failure retried on resume

    def test_checkpoint_under_different_limits_discarded(self, tmp_path):
        path = tmp_path / "ckpt.json"
        run_campaign(self.CELLS, LIMITS, store=ResultStore(path))

        other = ExplorationLimits(max_schedules=500)
        store = ResultStore(path, other)
        resumed = run_campaign(self.CELLS, other, store=store)
        assert store.discarded_mismatch
        assert resumed.num_cached == 0
        assert resumed.num_executed == len(self.CELLS)
        # the checkpoint is rewritten under the new limits and resumable
        again = run_campaign(self.CELLS, other,
                             store=ResultStore(path, other))
        assert again.num_cached == len(self.CELLS)


class TestIntraCellResume:
    """A half-explored cell resumes from its partial frontier
    checkpoint instead of schedule zero."""

    CELL = CampaignCell(3, "dfs")  # racy_counter(2,2): 252 schedules

    def test_partial_written_on_budget_limit(self, tmp_path):
        path = tmp_path / "ckpt.json"
        tight = ExplorationLimits(max_schedules=30)
        store = ResultStore(path, tight)
        campaign = run_campaign([self.CELL], tight, store=store)
        assert campaign.results[0].stats.limit_hit
        assert store.partial_path(self.CELL.key).exists()

    def test_laxer_budget_resumes_from_frontier(self, tmp_path):
        path = tmp_path / "ckpt.json"
        tight = ExplorationLimits(max_schedules=30)
        run_campaign([self.CELL], tight, store=ResultStore(path, tight))

        lax = ExplorationLimits(max_schedules=100_000)
        store = ResultStore(path, lax)
        resumed = run_campaign([self.CELL], lax, store=store)
        assert resumed.num_resumed == 1
        stats = resumed.results[0].stats
        # continued, not restarted: totals equal the uninterrupted run
        reference = execute_cell(self.CELL, lax).stats
        assert stats.num_schedules == reference.num_schedules == 252
        assert stats.hbr_fps == reference.hbr_fps
        assert stats.exhausted
        # the exhausted cell cleared its partial
        assert not store.partial_path(self.CELL.key).exists()

    def test_tighter_budget_discards_partial(self, tmp_path):
        path = tmp_path / "ckpt.json"
        mid = ExplorationLimits(max_schedules=30)
        run_campaign([self.CELL], mid, store=ResultStore(path, mid))

        tighter = ExplorationLimits(max_schedules=10)
        resumed = run_campaign([self.CELL], tighter,
                               store=ResultStore(path, tighter))
        assert resumed.num_resumed == 0
        assert resumed.results[0].stats.num_schedules == 10

    def test_corrupt_partial_ignored(self, tmp_path):
        path = tmp_path / "ckpt.json"
        limits = ExplorationLimits(max_schedules=120)
        store = ResultStore(path, limits)
        partial = store.partial_path(self.CELL.key)
        partial.parent.mkdir(parents=True)
        partial.write_text("{ not json")
        campaign = run_campaign([self.CELL], limits, store=store)
        assert campaign.num_resumed == 0
        assert campaign.results[0].ok

    def test_dpor_cells_resume_too(self, tmp_path):
        path = tmp_path / "ckpt.json"
        cell = CampaignCell(3, "dpor")
        tight = ExplorationLimits(max_schedules=5)
        first = run_campaign([cell], tight,
                             store=ResultStore(path, tight))
        if not first.results[0].stats.limit_hit:
            pytest.skip("dpor exhausted under the interrupt budget")
        lax = ExplorationLimits(max_schedules=100_000)
        resumed = run_campaign([cell], lax,
                               store=ResultStore(path, lax))
        assert resumed.num_resumed == 1
        reference = execute_cell(cell, lax).stats
        assert (resumed.results[0].stats.num_schedules
                == reference.num_schedules)
        assert resumed.results[0].stats.state_hashes \
            == reference.state_hashes

    def test_dpor_resumes_from_a_partial_before_its_first_schedule(
            self, tmp_path):
        path = tmp_path / "ckpt.json"
        cell = CampaignCell(36, "dpor")  # lock-order deadlock
        none = ExplorationLimits(max_schedules=0)
        first = run_campaign([cell], none, store=ResultStore(path, none))
        assert first.results[0].stats.num_schedules == 0
        lax = ExplorationLimits(max_schedules=100)
        resumed = run_campaign([cell], lax, store=ResultStore(path, lax))
        assert resumed.num_resumed == 1
        stats = resumed.results[0].stats
        reference = execute_cell(cell, lax).stats
        assert stats.num_schedules == reference.num_schedules > 0
        assert [e.kind for e in stats.errors] == ["DeadlockError"]


class TestSplitCampaign:
    """--split-large: one cell sharded into k disjoint sub-frontiers
    whose union-merged sets equal the unsplit cell's exactly."""

    LIMITS = ExplorationLimits(max_schedules=100_000)

    @pytest.mark.parametrize("explorer", ["dfs", "lazy-hbr-caching",
                                          "iterative-cb"])
    def test_split4_aggregates_to_unsplit_sets(self, explorer):
        cells = [CampaignCell(3, explorer)]
        unsplit = run_campaign(cells, self.LIMITS)
        # a small seed budget forces real sharding even on this
        # test-sized cell (the default would exhaust it while seeding)
        split = run_campaign(cells, self.LIMITS, jobs=2, split_large=4,
                             split_seed_schedules=8)
        assert split.num_split == 1
        u, s = unsplit.results[0].stats, split.results[0].stats
        assert s.hbr_fps == u.hbr_fps
        assert s.lazy_fps == u.lazy_fps
        assert s.state_hashes == u.state_hashes
        assert ({(e.kind, e.message) for e in s.errors}
                == {(e.kind, e.message) for e in u.errors})
        assert s.extra["split_shards"] == 4
        if explorer == "dfs":
            # no pruning: the shards partition the schedule set exactly
            assert s.num_schedules == u.num_schedules

    def test_truncated_seed_run_keeps_merged_cell_unexhausted(self):
        # the merge starts from True and ANDs the shards' flags, so the
        # seed's cut run must still count against the merged cell
        cell = CampaignCell(3, "dfs")
        shard = CellResult(cell, ExplorationStats(
            "p", "dfs", num_schedules=3, num_complete=3, exhausted=True),
            shard=0, num_shards=1)
        clean = ExplorationStats("p", "dfs", num_schedules=2,
                                 num_complete=2, limit_hit=True)
        assert merge_shard_results(CellResult(cell, clean),
                                   [shard]).stats.exhausted
        cut = ExplorationStats("p", "dfs", num_schedules=2, num_complete=1,
                               num_truncated=1, limit_hit=True)
        merged = merge_shard_results(CellResult(cell, cut), [shard]).stats
        assert merged.num_truncated == 1
        assert not merged.exhausted

    def test_split_dfs_schedule_count_exact_serial_vs_pool(self):
        cells = [CampaignCell(3, "dfs")]
        serial = run_campaign(cells, self.LIMITS, jobs=1, split_large=4)
        pooled = run_campaign(cells, self.LIMITS, jobs=4, split_large=4)
        assert stats_dicts(serial.results) == stats_dicts(pooled.results)

    def test_unsplittable_cells_run_whole(self):
        cells = [CampaignCell(3, "dpor"), CampaignCell(3, "random")]
        campaign = run_campaign(cells, self.LIMITS, split_large=4)
        assert campaign.num_split == 0
        assert all(r.ok for r in campaign.results)
        assert all("split_shards" not in r.stats.extra
                   for r in campaign.results)

    def test_tiny_cells_complete_during_seeding(self):
        campaign = run_campaign([CampaignCell(1, "dfs")], self.LIMITS,
                                split_large=4)
        # figure1 exhausts inside the seed budget: no shards needed
        assert campaign.num_split == 0
        reference = execute_cell(CampaignCell(1, "dfs"), self.LIMITS)
        assert (campaign.results[0].stats.num_schedules
                == reference.stats.num_schedules)

    def test_split_resume_serves_completed_shards(self, tmp_path):
        path = tmp_path / "ckpt.json"
        cells = [CampaignCell(3, "dfs")]
        store = ResultStore(path, self.LIMITS)
        first = run_campaign(cells, self.LIMITS, split_large=4,
                             store=store)
        assert first.num_split == 1

        again = run_campaign(cells, self.LIMITS, split_large=4,
                             store=ResultStore(path, self.LIMITS))
        # the deterministic seed re-runs, but every shard is cached
        assert again.num_cached == 4
        assert again.num_executed == 0
        assert stats_dicts(first.results) == stats_dicts(again.results)

    def test_budget_limited_shards_keep_partials_and_resume(
            self, tmp_path):
        # regression: record() used to delete a limit-hit shard's
        # final frontier snapshot, so laxer-budget resume restarted
        # the shard from its seed state
        path = tmp_path / "ckpt.json"
        cells = [CampaignCell(3, "dfs")]
        tight = ExplorationLimits(max_schedules=20)
        store = ResultStore(path, tight)
        first = run_campaign(cells, tight, split_large=2,
                             split_seed_schedules=4, store=store)
        assert first.num_split == 1
        assert first.results[0].stats.limit_hit
        from repro.campaign.split import shard_key
        kept = [i for i in range(2)
                if store.partial_path(
                    shard_key(cells[0], i, 2)).exists()]
        assert kept, "limit-hit shards must keep their partials"

        lax = ExplorationLimits(max_schedules=100_000)
        resumed = run_campaign(cells, lax, split_large=2,
                               split_seed_schedules=4,
                               store=ResultStore(path, lax))
        stats = resumed.results[0].stats
        reference = execute_cell(cells[0], lax).stats
        assert stats.hbr_fps == reference.hbr_fps
        assert stats.state_hashes == reference.state_hashes
        # shards continued from their frontiers: the total schedule
        # count stays the exact DFS partition count
        assert stats.num_schedules == reference.num_schedules

    def test_invalid_split_rejected(self):
        with pytest.raises(ValueError):
            run_campaign([CampaignCell(1, "dfs")], self.LIMITS,
                         split_large=1)

    def test_mixed_matrix_split_and_whole(self):
        cells = build_cells([1, 3], ["dfs", "dpor"])
        unsplit = run_campaign(cells, self.LIMITS)
        split = run_campaign(cells, self.LIMITS, jobs=2, split_large=2)
        for u, s in zip(unsplit.results, split.results):
            assert u.stats.state_hashes == s.stats.state_hashes
        report = campaign_report(split, self.LIMITS)
        assert report.summary.num_failed == 0


class TestCampaignReport:
    def test_report_shape(self):
        cells = build_cells([1, 36], ["dpor"])
        campaign = run_campaign(cells, LIMITS)
        report = campaign_report(campaign, LIMITS, meta={"jobs": 1})
        assert report.summary.num_cells == 2
        assert report.summary.num_failed == 0
        payload = json.loads(json.dumps(report.to_dict()))
        assert payload["kind"] == "repro-campaign-report"
        assert payload["summary"]["num_cells"] == 2
        assert payload["summary"]["num_failed"] == 0
        assert payload["limits"]["max_schedules"] == 120
        assert payload["campaign"]["jobs"] == 1
        assert len(payload["cells"]) == 2

    def test_failures_counted(self):
        campaign = run_campaign([CampaignCell(999, "dpor")], LIMITS)
        report = campaign_report(campaign)
        assert report.summary.num_failed == 1
        assert campaign.unexpected

    def test_round_trip(self):
        cells = build_cells([1, 36], ["dpor", "hbr-caching"])
        campaign = run_campaign(cells, LIMITS)
        report = campaign_report(
            campaign, LIMITS, meta={"jobs": 1, "smoke": False},
            figure2=figure2_rows_from_cells(campaign.results),
        )
        payload = report.to_dict()
        back = CampaignReport.from_dict(json.loads(json.dumps(payload)))
        assert back.to_dict() == payload
        assert back.summary == report.summary
        assert [r.cell for r in back.cells] == [r.cell for r in report.cells]
        assert back.figure2 == report.figure2

    def test_round_trip_minimal(self):
        campaign = run_campaign([CampaignCell(1, "dpor")], LIMITS)
        report = campaign_report(campaign)
        back = CampaignReport.from_dict(report.to_dict())
        assert back.to_dict() == report.to_dict()
        assert back.limits is None and back.campaign is None
        assert back.figure2 is None and back.figure3 is None

    def test_from_dict_rejects_foreign_documents(self):
        with pytest.raises(ValueError, match="kind"):
            CampaignReport.from_dict({"kind": "something-else"})
        with pytest.raises(ValueError, match="version"):
            CampaignReport.from_dict(
                {"kind": "repro-campaign-report", "version": 99}
            )


class TestCampaignCLI:
    def test_smoke_exits_zero(self, capsys):
        assert main(["campaign", "--smoke", "--jobs", "2"]) == 0
        out = capsys.readouterr().out
        assert "| figure1 | dpor |" in out
        assert "failed=0" in out

    def test_out_report_written(self, tmp_path, capsys):
        path = tmp_path / "report.json"
        assert main(["campaign", "--ids", "1,36", "--explorers",
                     "dpor,hbr-caching,lazy-hbr-caching", "--limit",
                     "120", "--out", str(path)]) == 0
        payload = json.loads(path.read_text())
        assert payload["summary"]["num_cells"] == 6
        assert [r["bench_id"] for r in payload["figure2"]] == [1, 36]
        assert [r["bench_id"] for r in payload["figure3"]] == [1, 36]

    def test_resume_skips_completed_cells(self, tmp_path, capsys):
        ckpt = tmp_path / "ckpt.json"
        args = ["campaign", "--ids", "1", "--explorers", "dpor",
                "--limit", "120", "--resume", str(ckpt)]
        assert main(args) == 0
        capsys.readouterr()
        assert main(args) == 0
        out = capsys.readouterr().out
        assert "resuming: 1 cell(s)" in out
        assert "executed=0 cached=1" in out

    def test_seeds_fan_out_randomized_only(self, capsys):
        assert main(["campaign", "--ids", "1", "--explorers",
                     "dpor,random", "--seeds", "2", "--limit",
                     "60"]) == 0
        out = capsys.readouterr().out
        assert "cells=3" in out  # dpor + random#0 + random#1
        assert "random#1" in out

    def test_unknown_bench_id_exits_2(self):
        with pytest.raises(SystemExit) as exc:
            main(["campaign", "--ids", "999"])
        assert exc.value.code == 2

    def test_bad_ids_token_exits_2(self, capsys):
        assert main(["campaign", "--ids", "1,2x"]) == 2
        assert "--ids" in capsys.readouterr().err

    def test_unknown_explorer_exits_2(self, capsys):
        assert main(["campaign", "--ids", "1", "--explorers",
                     "dpr"]) == 2
        assert "unknown explorer" in capsys.readouterr().err

    def test_bad_jobs_exits_2(self, capsys):
        assert main(["campaign", "--ids", "1", "--jobs", "0"]) == 2
        assert "--jobs" in capsys.readouterr().err

    def test_resume_with_different_limits_ignores_checkpoint(
            self, tmp_path, capsys):
        ckpt = tmp_path / "ckpt.json"
        base = ["campaign", "--ids", "1", "--explorers", "dpor",
                "--resume", str(ckpt)]
        assert main(base + ["--limit", "120"]) == 0
        capsys.readouterr()
        assert main(base + ["--limit", "200"]) == 0
        out = capsys.readouterr().out
        assert "ignoring checkpoint" in out
        assert "executed=1 cached=0" in out
