"""Tests for result serialisation and the matrix CLI command."""

import json

from repro.__main__ import main
from repro.explore import DPORExplorer, ExplorationLimits
from repro.suite import REGISTRY


class TestToDict:
    def test_roundtrips_through_json(self):
        stats = DPORExplorer(
            REGISTRY[36].program, ExplorationLimits(max_schedules=100)
        ).run()
        payload = json.loads(json.dumps(stats.to_dict()))
        assert payload["program"] == "lock_order_deadlock"
        assert payload["explorer"] == "dpor"
        assert payload["num_schedules"] == stats.num_schedules
        assert payload["errors"][0]["kind"] == "DeadlockError"
        assert isinstance(payload["errors"][0]["schedule"], list)

    def test_extra_filtered_to_scalars(self):
        stats = DPORExplorer(
            REGISTRY[1].program, ExplorationLimits(max_schedules=100)
        ).run()
        stats.extra["fine"] = 3
        stats.extra["dropped"] = object()
        d = stats.to_dict()
        assert d["extra"]["fine"] == 3
        assert "dropped" not in d["extra"]

    def test_extra_json_safe_collections_round_trip(self):
        # non-scalar but JSON-safe extras (lists, nested dicts) used to
        # be silently dropped; the campaign store needs them faithful
        from repro.explore.base import ExplorationStats

        stats = DPORExplorer(
            REGISTRY[1].program, ExplorationLimits(max_schedules=100)
        ).run()
        stats.extra["per_bound"] = [3, 1, 4]
        stats.extra["nested"] = {"rounds": {"0": 5}, "flags": [True]}
        stats.extra["still_dropped"] = {"obj": object()}
        payload = json.loads(json.dumps(stats.to_dict()))
        assert payload["extra"]["per_bound"] == [3, 1, 4]
        assert payload["extra"]["nested"] == {"rounds": {"0": 5},
                                              "flags": [True]}
        assert "still_dropped" not in payload["extra"]
        clone = ExplorationStats.from_dict(payload)
        assert clone.extra["per_bound"] == [3, 1, 4]
        assert clone.extra["nested"]["rounds"]["0"] == 5

    def test_fingerprint_sets_round_trip(self):
        from repro.explore.base import ExplorationStats

        stats = DPORExplorer(
            REGISTRY[36].program, ExplorationLimits(max_schedules=100)
        ).run()
        assert stats.has_consistent_sets()
        payload = json.loads(json.dumps(stats.to_dict()))
        assert payload["hbr_fps"] == sorted(stats.hbr_fps)
        clone = ExplorationStats.from_dict(payload)
        assert clone.hbr_fps == stats.hbr_fps
        assert clone.lazy_fps == stats.lazy_fps
        assert clone.state_hashes == stats.state_hashes
        assert clone.has_consistent_sets()
        # full dict round trip (the campaign determinism tests rely on
        # to_dict equality, so from_dict(to_dict) must be lossless
        # modulo non-JSON extras)
        assert clone.to_dict() == stats.to_dict()

    def test_merge_requires_consistent_sets(self):
        import pytest

        from repro.explore.base import ExplorationStats

        a = ExplorationStats("p", "e", num_schedules=5, num_hbrs=2,
                             hbr_fps={1, 2}, lazy_fps=set(),
                             state_hashes=set())
        legacy = ExplorationStats("p", "e", num_schedules=5, num_hbrs=3)
        with pytest.raises(ValueError):
            a.merge(legacy)

    def test_merge_unions_sets_and_dedups_errors(self):
        from repro.explore.base import ErrorFinding, ExplorationStats

        a = ExplorationStats(
            "p", "e", num_schedules=3, num_complete=3, num_hbrs=2,
            num_lazy_hbrs=2, num_states=1, hbr_fps={1, 2},
            lazy_fps={10, 11}, state_hashes={7},
            errors=[ErrorFinding("Dead", "m", [0, 1])],
            exhausted=True,
        )
        b = ExplorationStats(
            "p", "e", num_schedules=4, num_complete=4, num_hbrs=2,
            num_lazy_hbrs=1, num_states=1, hbr_fps={2, 3},
            lazy_fps={11}, state_hashes={7},
            errors=[ErrorFinding("Dead", "m", [1, 0]),
                    ErrorFinding("Assert", "n", [1])],
            exhausted=True,
        )
        a.merge(b)
        assert a.num_schedules == 7
        assert a.hbr_fps == {1, 2, 3} and a.num_hbrs == 3
        assert a.lazy_fps == {10, 11} and a.num_lazy_hbrs == 2
        assert a.num_states == 1
        # errors dedup by (kind, message); first witness wins
        assert [(e.kind, e.schedule) for e in a.errors] == [
            ("Dead", [0, 1]), ("Assert", [1]),
        ]
        assert a.exhausted


class TestMatrixCommand:
    """The explorer comparison table and its per-cell statistics come
    from ``repro campaign --ids --explorers`` (and ``--out``)."""

    def test_matrix_renders_table(self, capsys):
        assert main(["campaign", "--ids", "1", "--explorers",
                     "dpor,lazy-dpor", "--limit", "200"]) == 0
        out = capsys.readouterr().out
        assert "| figure1 | dpor |" in out
        assert "lazy-dpor" in out

    def test_matrix_json_export(self, tmp_path, capsys):
        path = tmp_path / "results.json"
        assert main(["campaign", "--ids", "1,36", "--explorers", "dpor",
                     "--limit", "200", "--out", str(path)]) == 0
        cells = json.loads(path.read_text())["cells"]
        assert len(cells) == 2
        assert cells[0]["stats"]["program"] == "figure1"
        assert cells[1]["stats"]["errors"]
