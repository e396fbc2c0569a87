"""Tests for the ``python -m repro`` command-line interface."""

import pytest

from repro.__main__ import build_parser, main


class TestCheck:
    def test_check_benchmark_clean(self, capsys):
        assert main(["check", "1", "--explorer", "dfs",
                     "--limit", "100"]) == 0
        out = capsys.readouterr().out
        assert "no bug found" in out

    def test_check_finds_bug_exits_1(self, capsys):
        assert main(["check", "36", "--limit", "500"]) == 1
        out = capsys.readouterr().out
        assert "BUG" in out
        assert "minimized" in out

    def test_expect_bug_makes_finding_a_pass(self, capsys):
        assert main(["check", "36", "--limit", "500",
                     "--expect", "bug"]) == 0

    def test_expect_clean_fails_on_bug(self, capsys):
        assert main(["check", "36", "--limit", "500",
                     "--expect", "clean"]) == 1
        assert "UNEXPECTED" in capsys.readouterr().err

    def test_module_function_target(self, capsys, monkeypatch):
        import pathlib
        import sys as _sys
        repo = pathlib.Path(__file__).parent.parent
        monkeypatch.syspath_prepend(str(repo))
        _sys.modules.pop("examples.real_code_demo", None)
        assert main(["check", "examples.real_code_demo:pipeline",
                     "--expect", "bug"]) == 0
        out = capsys.readouterr().out
        assert "lost update" in out

    def test_json_artifact(self, capsys, tmp_path):
        import json
        path = tmp_path / "check.json"
        assert main(["check", "36", "--limit", "500",
                     "--json", str(path), "--expect", "bug"]) == 0
        payload = json.loads(path.read_text())
        assert payload["bug_found"] is True
        assert payload["explorer"] == "dpor"

    def test_lazy_dpor_check_says_approximate(self, capsys, tmp_path):
        import json
        path = tmp_path / "check.json"
        assert main(["check", "1", "--explorer", "lazy-dpor",
                     "--limit", "100", "--json", str(path)]) == 0
        assert "approximate" in capsys.readouterr().out
        assert json.loads(path.read_text())["approximate"] is True

    def test_exact_check_does_not_say_approximate(self, capsys, tmp_path):
        import json
        path = tmp_path / "check.json"
        assert main(["check", "1", "--limit", "100",
                     "--json", str(path)]) == 0
        assert "approximate" not in capsys.readouterr().out
        assert json.loads(path.read_text())["approximate"] is False

    def test_bad_target_exits_2(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["check", "no-colon-here"])
        assert exc.value.code == 2

    def test_unknown_explorer_exits_2(self, capsys):
        assert main(["check", "1", "--explorer", "nope"]) == 2

    def test_seeded_explorer_several_seeds(self, capsys):
        assert main(["check", "4", "--explorer", "random", "--seeds", "2",
                     "--limit", "50"]) == 0
        assert "100 schedules" in capsys.readouterr().out

    def test_zero_seeds_exits_2(self, capsys):
        assert main(["check", "4", "--explorer", "random",
                     "--seeds", "0"]) == 2
        err = capsys.readouterr().err.strip().splitlines()
        assert len(err) == 1 and err[0].startswith("error:"), err


class TestShimEquivalence:
    def test_report_and_artifact(self, capsys, tmp_path):
        import json
        path = tmp_path / "equiv.json"
        assert main(["shim-equivalence", "--limit", "400",
                     "--explorers", "dpor", "--out", str(path)]) == 0
        out = capsys.readouterr().out
        assert "all_equal=True" in out
        assert "racy_counter" in out
        payload = json.loads(path.read_text())
        assert payload["kind"] == "repro-shim-equivalence"
        assert payload["all_equal"] is True


class TestList:
    def test_lists_all(self, capsys):
        assert main(["list"]) == 0
        out = capsys.readouterr().out
        assert "figure1" in out
        # header + 96 rows
        assert len(out.strip().splitlines()) == 97


class TestRun:
    def test_run_figure1(self, capsys):
        assert main(["run", "1"]) == 0
        out = capsys.readouterr().out
        assert "figure1" in out
        assert "final state" in out

    def test_run_with_schedule(self, capsys):
        assert main(["run", "1", "--schedule", "1,1,1,1,1,0"]) == 0
        out = capsys.readouterr().out
        assert "schedule=[1, 1, 1, 1, 1, 0" in out

    def test_unknown_id_exits_2(self):
        with pytest.raises(SystemExit) as exc:
            main(["run", "999"])
        assert exc.value.code == 2


class TestExplore:
    def test_explore_dpor(self, capsys):
        assert main(["explore", "1", "--strategy", "dpor"]) == 0
        out = capsys.readouterr().out
        assert "dpor" in out
        assert "hbrs=2" in out

    def test_explore_finds_deadlock(self, capsys):
        assert main(["explore", "36"]) == 0
        out = capsys.readouterr().out
        assert "DeadlockError" in out
        assert "schedule:" in out

    def test_unknown_strategy(self, capsys):
        assert main(["explore", "1", "--strategy", "nope"]) == 2

    def test_all_strategies_accessible(self, capsys):
        for strategy in ("dfs", "dpor", "hbr-caching", "lazy-hbr-caching",
                         "lazy-dpor"):
            assert main(["explore", "1", "--strategy", strategy,
                         "--limit", "200"]) == 0


class TestRaces:
    def test_racy_benchmark_exits_1(self, capsys):
        assert main(["races", "2"]) == 1
        out = capsys.readouterr().out
        assert "race(s)" in out
        assert "witness" in out

    def test_clean_benchmark_exits_0(self, capsys):
        assert main(["races", "5"]) == 0
        assert "race-free" in capsys.readouterr().out


class TestFigures:
    def test_parser_has_all_commands(self):
        parser = build_parser()
        for cmd in ("list", "run", "explore", "races", "figure2",
                    "figure3", "inequality", "campaign"):
            # does not raise
            if cmd == "list":
                parser.parse_args([cmd])
            elif cmd in ("run", "explore", "races"):
                parser.parse_args([cmd, "1"])
            else:
                parser.parse_args([cmd, "--limit", "10"])

    def test_figure_commands_accept_jobs(self):
        parser = build_parser()
        for cmd in ("figure2", "figure3", "inequality"):
            args = parser.parse_args([cmd, "--jobs", "4"])
            assert args.jobs == 4

    def test_campaign_flags(self):
        args = build_parser().parse_args(
            ["campaign", "--smoke", "--jobs", "2", "--seeds", "3",
             "--resume", "ckpt.json", "--out", "report.json"]
        )
        assert args.smoke and args.jobs == 2 and args.seeds == 3
        assert args.resume == "ckpt.json" and args.out == "report.json"

    def test_missing_command_rejected(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args([])
