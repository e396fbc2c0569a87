"""The perf harness: report shape, regression comparison, CLI, and the
committed baseline artifact."""

import json
import os
import subprocess
import sys

import pytest

from repro.core.engines import BACKENDS
from repro.perf.bench import (
    AB_REPORT_KIND,
    CASES,
    PREFIX_CASES,
    PREFIX_REPORT_KIND,
    REPORT_KIND,
    SPLIT_REPORT_KIND,
    ab_table,
    bench_table,
    case_names,
    compare_reports,
    load_report,
    profile_case,
    run_bench,
    run_engine_ab,
    run_prefix_bench,
    run_split_bench,
    write_report,
)

REPO_ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))

TINY = dict(repeat=1, min_time=0.0)


class TestSplitScenario:
    def test_report_shape_and_consistency(self):
        report = run_split_bench(shards=2, smoke=True)
        assert report["meta"]["kind"] == SPLIT_REPORT_KIND
        split = report["split"]
        assert split["shards"] == 2
        assert split["schedules"] > 0
        assert split["serial_seconds"] > 0
        assert split["split_seconds"] > 0
        # no speedup assertion: CI runners may have one core — the
        # scenario itself asserts split/serial/resume set equality and
        # raises AssertionError on divergence, which is the real check
        assert split["speedup"] == pytest.approx(
            split["serial_seconds"] / split["split_seconds"]
        )
        resume = report["resume"]
        assert resume["frontier_items"] > 0
        assert resume["snapshot_bytes"] > 0

    def test_cli_scenario_split(self, tmp_path, capsys):
        from repro.__main__ import main

        out = tmp_path / "BENCH_split.json"
        assert main(["bench", "--scenario", "split", "--smoke",
                     "--shards", "2", "--out", str(out)]) == 0
        captured = capsys.readouterr().out
        assert "split speedup" in captured
        payload = json.loads(out.read_text())
        assert payload["meta"]["kind"] == SPLIT_REPORT_KIND


class TestPrefixScenario:
    def test_report_shape_and_accounting(self):
        report = run_prefix_bench(smoke=True, min_time=0.0, repeat=1)
        assert report["meta"]["kind"] == PREFIX_REPORT_KIND
        assert set(report["cases"]) == {c.name for c in PREFIX_CASES}
        for name, case in report["cases"].items():
            # event accounting: resumed + replayed + fresh == total
            assert (case["resumed_events"] + case["replayed_events"]
                    + case["fresh_events"]) == case["events"], name
            assert case["resumed_fraction"] + case["replayed_fraction"] \
                + case["fresh_fraction"] == pytest.approx(1.0)
            assert case["speedup"] == pytest.approx(
                case["on_schedules_per_sec"] / case["off_schedules_per_sec"]
            )
            snap = case["snapshot"]
            assert 0.0 <= snap["hit_rate"] <= 1.0
            # deep cases actually resume most of their prefix events
            if name != "dfs/racy_counter":
                assert case["resumed_fraction"] > 0.5, name

    def test_cli_scenario_prefix(self, tmp_path, capsys):
        from repro.__main__ import main

        out = tmp_path / "BENCH_prefix.json"
        assert main(["bench", "--scenario", "prefix", "--smoke",
                     "--min-time", "0.0", "--quiet",
                     "--out", str(out)]) == 0
        captured = capsys.readouterr().out
        assert "prefix sharing" in captured
        payload = json.loads(out.read_text())
        assert payload["meta"]["kind"] == PREFIX_REPORT_KIND


class TestProfile:
    def test_profile_case_writes_pstats(self, tmp_path):
        import pstats

        out = tmp_path / "profile.pstats"
        profile_case("dfs/racy_counter", str(out), max_schedules=50)
        stats = pstats.Stats(str(out))
        assert stats.total_calls > 0

    def test_cli_profile_flag(self, tmp_path, capsys):
        from repro.__main__ import main

        prof = tmp_path / "slowest.pstats"
        assert main(["bench", "--cases", "dfs/racy_counter",
                     "--repeat", "1", "--min-time", "0.0", "--quiet",
                     "--profile", str(prof)]) == 0
        assert "profiled slowest case" in capsys.readouterr().out
        assert prof.stat().st_size > 0


class TestRunBench:
    def test_report_shape(self):
        report = run_bench(cases=["dfs/racy_counter"], **TINY)
        assert report["meta"]["kind"] == REPORT_KIND
        assert report["meta"]["calibration_ops_per_sec"] > 0
        case = report["cases"]["dfs/racy_counter"]
        assert case["schedules"] == 1680       # DFS exhausts racy_counter
        assert case["schedules_per_sec"] > 0
        assert case["events_per_sec"] > case["schedules_per_sec"]
        assert case["iterations"] >= 1

    def test_iteration_floor(self):
        # regression: slow cells used to calibrate to as few as two
        # iterations (dfs/bounded_buffer_pc2), letting one scheduler
        # hiccup poison half the best-of sample; every measurement now
        # runs at least MIN_ITERATIONS iterations even when min_time
        # has already elapsed
        from repro.perf.bench import MIN_ITERATIONS

        assert MIN_ITERATIONS >= 3
        report = run_bench(cases=["dfs/racy_counter"], **TINY)
        assert (report["cases"]["dfs/racy_counter"]["iterations"]
                >= MIN_ITERATIONS)

    def test_unknown_case_rejected(self):
        with pytest.raises(KeyError):
            run_bench(cases=["nope/nothing"], **TINY)

    def test_case_table_is_consistent(self):
        names = case_names()
        assert len(names) == len(set(names)) == len(CASES)
        # at least three distinct explorers and three programs measured
        assert len({c.explorer for c in CASES}) >= 3
        assert len({c.bench_id for c in CASES}) >= 3

    def test_engine_recorded_in_every_case_row(self, monkeypatch):
        from repro.core.engines import available_backends, native_compiled

        monkeypatch.delenv("REPRO_ENGINE", raising=False)
        report = run_bench(cases=["dfs/racy_counter", "dpor/racy_counter"],
                           **TINY)
        assert report["meta"]["engine"] == "auto"
        for row in report["cases"].values():
            assert row["engine"] in available_backends()
            # every row carries the provenance of the backend it ran on
            prov = row["provenance"]
            assert isinstance(prov["compiled"], bool)
            assert prov["python"]
        # auto resolves to the compiled native kernel when built, the
        # reference backend otherwise
        expected = "native" if native_compiled() else "ref"
        assert report["cases"]["dpor/racy_counter"]["engine"] == expected

    def test_provenance_warnings_on_mismatch(self):
        from repro.perf.bench import provenance_warnings

        current = run_bench(cases=["dfs/racy_counter"], **TINY)
        same = provenance_warnings(current, current)
        assert same == []
        flipped = json.loads(json.dumps(current))
        row = flipped["cases"]["dfs/racy_counter"]
        row["provenance"]["compiled"] = not row["provenance"]["compiled"]
        warned = provenance_warnings(current, flipped)
        assert len(warned) == 1 and "provenance differs" in warned[0]
        # a baseline predating provenance recording warns too
        del row["provenance"]
        warned = provenance_warnings(current, flipped)
        assert len(warned) == 1 and "predates provenance" in warned[0]

    def test_explicit_engine_pins_every_case(self):
        report = run_bench(cases=["dfs/racy_counter", "dpor/racy_counter"],
                           engine="ref", **TINY)
        assert report["meta"]["engine"] == "ref"
        assert all(r["engine"] == "ref" for r in report["cases"].values())


class TestEngineAB:
    def test_ab_report_shape_and_equivalence(self):
        from repro.core.engines import native_compiled

        if not native_compiled():
            # nothing to compare ref against: refused up front
            with pytest.raises(ValueError, match="build_ext --inplace"):
                run_engine_ab(cases=["dfs/racy_counter"], **TINY)
            return
        report = run_engine_ab(cases=["dfs/racy_counter"], **TINY)
        assert report["meta"]["kind"] == AB_REPORT_KIND
        assert report["meta"]["engines"] == ["ref", "native"]
        assert set(report["meta"]["provenance"]) == {"ref", "native"}
        assert report["meta"]["provenance"]["native"]["compiled"] is True
        case = report["cases"]["dfs/racy_counter"]
        assert case["equivalent"] is True
        for name in ("ref", "native"):
            assert case[name]["engine"] == name
            assert case[name]["schedules_per_sec"] > 0
        assert set(case["speedups"]) == {"native"}
        assert case["speedups"]["native"] == pytest.approx(
            case["native"]["schedules_per_sec"]
            / case["ref"]["schedules_per_sec"]
        )
        table = ab_table(report)
        assert "dfs/racy_counter" in table and "ref sched/s" in table
        assert "native sched/s" in table and "native speedup" in table

    def _ab_cli(self, *extra):
        from repro.__main__ import main

        return main(["bench", "--engine", "both",
                     "--cases", "dpor/racy_counter", "--repeat", "1",
                     "--min-time", "0.0", "--quiet", *extra])

    def test_ab_cli(self, tmp_path, capsys):
        from repro.core.engines import native_compiled

        out = tmp_path / "BENCH_ab.json"
        rc = self._ab_cli("--out", str(out))
        if not native_compiled():
            assert rc == 2 and not out.exists()
            return
        assert rc == 0
        assert "native speedup" in capsys.readouterr().out
        payload = json.loads(out.read_text())
        assert payload["meta"]["kind"] == AB_REPORT_KIND

    def test_ab_cli_without_kernel_exits_2(self, monkeypatch, capsys):
        from repro.core import engines

        # look uncompiled, whether or not the kernel is built
        monkeypatch.setattr(engines, "_NATIVE_COMPILED", False)
        monkeypatch.setattr(engines, "_RESOLVE_CACHE", {})
        assert self._ab_cli() == 2
        captured = capsys.readouterr()
        lines = captured.err.strip().splitlines()
        assert len(lines) == 1, captured.err
        assert lines[0].startswith("error: ")
        assert "build_ext --inplace" in lines[0]
        assert captured.out == ""


class TestCompareReports:
    def _fake(self, rate, cal=1_000_000.0):
        return {
            "meta": {"kind": REPORT_KIND, "calibration_ops_per_sec": cal},
            "cases": {"x/y": {"schedules_per_sec": rate,
                              "events_per_sec": rate * 9}},
        }

    def test_no_regression_within_threshold(self):
        assert compare_reports(self._fake(80.0), self._fake(100.0),
                               max_regression=0.30) == []

    def test_regression_detected(self):
        failures = compare_reports(self._fake(60.0), self._fake(100.0),
                                   max_regression=0.30)
        assert len(failures) == 1 and "x/y" in failures[0]

    def test_calibration_normalises_machine_speed(self):
        # half the throughput on a machine measured half as fast: fine
        cur = self._fake(50.0, cal=500_000.0)
        assert compare_reports(cur, self._fake(100.0),
                               max_regression=0.30) == []

    def test_disjoint_cases_ignored(self):
        cur = self._fake(100.0)
        base = self._fake(100.0)
        base["cases"]["only/base"] = {"schedules_per_sec": 5.0}
        assert compare_reports(cur, base) == []


class TestReportIO:
    def test_roundtrip(self, tmp_path):
        report = run_bench(cases=["dpor/racy_counter"], **TINY)
        path = tmp_path / "BENCH_test.json"
        write_report(report, str(path))
        loaded = load_report(str(path))
        assert loaded["cases"].keys() == report["cases"].keys()

    def test_rejects_foreign_json(self, tmp_path):
        path = tmp_path / "other.json"
        path.write_text(json.dumps({"foo": 1}))
        with pytest.raises(ValueError):
            load_report(str(path))

    def test_table_lists_all_cases(self):
        report = run_bench(cases=["dfs/racy_counter"], **TINY)
        table = bench_table(report)
        assert "dfs/racy_counter" in table and table.startswith("| case |")


class TestCommittedBaseline:
    #: the dfs/dpor hot cells the engine-backend PR guards: none may
    #: fall below 0.9x of the immediately-pre-PR schedules/sec on the
    #: reference engine (the auto default)
    REPLAY_GUARD = (
        "dfs/racy_counter",
        "dfs/bounded_buffer",
        "dfs/bounded_buffer_pc2",
        "dfs/chan_pipeline2",
        "dpor/racy_counter",
        "dpor/disjoint_coarse",
        "dpor/chan_pipeline2",
        "lazy-dpor/disjoint_coarse",
    )

    def test_baseline_artifact_is_valid(self):
        baseline = load_report(os.path.join(REPO_ROOT,
                                            "BENCH_baseline.json"))
        assert set(baseline["cases"]) == set(case_names())
        # every case row is self-describing about its backend and how
        # that backend was built
        for name, row in baseline["cases"].items():
            assert row["engine"] in BACKENDS, name
            assert "provenance" in row, name
        pre = baseline["pre_pr"]
        assert pre["commit"]
        # the engine PR's regression guard, pinned as a test: the
        # replay-path structural work (state-hash memoisation, thread
        # adoption on restore, executor pooling) must keep every
        # guarded dfs/dpor hot cell within 10% of the
        # immediately-pre-PR schedules/sec, calibration-normalised on
        # one harness+machine.  (The snapshot-path cells measured
        # 1.1-1.3x; the guard pins the floor, not the wins.)
        speedups = pre["speedup_schedules_per_sec"]
        guard = {n: speedups[n] for n in self.REPLAY_GUARD}
        assert all(s >= 0.9 for s in guard.values()), guard
        # the pre-PR block covers the full current case set
        assert set(speedups) == set(case_names())
        assert set(pre["cases"]) == set(case_names())


class TestCLI:
    def _env(self):
        env = dict(os.environ)
        env["PYTHONPATH"] = os.path.join(REPO_ROOT, "src") + (
            os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else ""
        )
        return env

    def test_bench_cli_smoke(self, tmp_path):
        out = tmp_path / "bench.json"
        proc = subprocess.run(
            [sys.executable, "-m", "repro", "bench",
             "--cases", "dpor/racy_counter", "--repeat", "1",
             "--min-time", "0.0", "--quiet", "--out", str(out)],
            capture_output=True, text=True, env=self._env(), cwd=REPO_ROOT,
        )
        assert proc.returncode == 0, proc.stderr
        report = json.loads(out.read_text())
        assert "dpor/racy_counter" in report["cases"]

    def test_baseline_missing_case_fails_loudly(self, tmp_path, capsys):
        # regression: a case the baseline never measured used to sail
        # through the comparison as "no regressions" — the CLI must
        # fail with a clear message instead
        from repro.__main__ import main

        baseline = run_bench(cases=["dpor/racy_counter"], **TINY)
        path = tmp_path / "BENCH_small.json"
        write_report(baseline, str(path))
        assert main(["bench", "--cases", "dfs/racy_counter",
                     "--repeat", "1", "--min-time", "0.0", "--quiet",
                     "--baseline", str(path)]) == 1
        err = capsys.readouterr().err
        assert "missing from baseline" in err
        assert "dfs/racy_counter" in err

    def test_bench_cli_unknown_case(self):
        proc = subprocess.run(
            [sys.executable, "-m", "repro", "bench", "--cases", "zzz",
             "--quiet"],
            capture_output=True, text=True, env=self._env(), cwd=REPO_ROOT,
        )
        assert proc.returncode == 2
        assert "unknown bench case" in proc.stderr
