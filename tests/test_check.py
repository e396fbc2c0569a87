"""``repro.check`` and the :class:`CheckResult` currency."""

import pytest

import repro
from repro.check import CheckResult, check
from repro.explore.base import ExplorationLimits
from repro.explore.controller import STANDARD_EXPLORERS, make_explorer
from repro.shim import threading as shim_threading
from repro.suite import all_benchmarks


def spin_wait():
    """A spin-wait on a flag nobody sets: no run ever ends, so every
    run is cut at ``max_events_per_schedule``."""
    def build(p):
        flag = p.var("flag", 0)
        other = p.var("other", 0)

        def spin(api):
            while (yield api.read(flag)) == 0:
                pass

        def bystander(api):
            yield api.write(other, 1)

        p.thread(spin)
        p.thread(bystander)

    return repro.Program("spin_wait", build)


@pytest.mark.parametrize("name", sorted(STANDARD_EXPLORERS))
def test_truncated_runs_are_never_exhausted(name):
    # no run ends, so no explorer covered the space, however its own
    # loop stopped: DPOR's frontier empties after one cut run, the
    # caching explorers prune the rest, the bounded ones reach their
    # bound
    limits = ExplorationLimits(max_events_per_schedule=50,
                               max_schedules=200)
    stats = make_explorer(name, spin_wait(), limits).run()
    assert stats.num_truncated > 0
    assert not stats.exhausted
    assert "*" not in stats.summary()


@repro.shared
class Cell:
    def __init__(self):
        self.value = 0


def racy_main():
    c = Cell()

    def worker():
        c.value += 1

    t1 = shim_threading.Thread(target=worker)
    t2 = shim_threading.Thread(target=worker)
    t1.start()
    t2.start()
    t1.join()
    t2.join()
    assert c.value == 2, c.value


def clean_main():
    c = Cell()
    lock = shim_threading.Lock()

    def worker():
        with lock:
            c.value += 1

    t1 = shim_threading.Thread(target=worker)
    t2 = shim_threading.Thread(target=worker)
    t1.start()
    t2.start()
    t1.join()
    t2.join()
    assert c.value == 2


def _normalized(result: CheckResult) -> dict:
    d = result.to_dict()
    d["elapsed"] = 0.0
    d["stats"]["elapsed"] = 0.0
    return d


class TestCheck:
    def test_finds_seeded_bug_and_minimizes(self):
        result = check(racy_main)
        assert result.bug_found
        assert result.error_kind == "GuestCrashError"
        assert "AssertionError" in result.error_message
        assert result.schedule
        assert result.minimized_schedule
        assert len(result.minimized_schedule) <= len(result.schedule)
        assert result.repro_schedule == result.minimized_schedule
        assert result.trace, "expected a rendered timeline"
        assert any("Cell.value#0" in line for line in result.trace)

    def test_clean_program(self):
        result = check(clean_main)
        assert not result.bug_found
        assert result.error_kind is None
        assert result.schedule is None
        assert result.trace == []
        assert result.stats.num_schedules >= 2
        # nothing was cut, so neither summary mentions truncation
        assert result.stats.num_truncated == 0
        assert "truncated" not in result.summary()
        assert "trunc=" not in result.stats.summary()

    def test_deterministic_across_calls(self):
        a, b = check(racy_main), check(racy_main)
        assert _normalized(a) == _normalized(b)

    def test_round_trip(self):
        result = check(racy_main)
        back = CheckResult.from_dict(result.to_dict())
        assert back.to_dict() == result.to_dict()

    def test_round_trip_clean(self):
        result = check(clean_main, max_schedules=50)
        back = CheckResult.from_dict(result.to_dict())
        assert back.to_dict() == result.to_dict()

    def test_summary_mentions_bug(self):
        result = check(racy_main)
        text = result.summary()
        assert "BUG" in text and "minimized" in text

    def test_lazy_dpor_result_is_approximate(self):
        # lazy-dpor can miss states; its result says so, in the summary
        # and in the JSON form, and survives a round trip
        result = check(all_benchmarks()[0].program, explorer="lazy-dpor",
                       max_schedules=50)
        assert result.approximate
        assert "approximate" in result.summary()
        assert result.to_dict()["approximate"] is True
        assert CheckResult.from_dict(result.to_dict()).approximate

    @pytest.mark.parametrize("explorer", ["dpor", "dfs", "hbr-caching",
                                          "lazy-hbr-caching"])
    def test_exact_explorers_are_not_approximate(self, explorer):
        result = check(all_benchmarks()[0].program, explorer=explorer,
                       max_schedules=50)
        assert not result.approximate
        assert "approximate" not in result.summary()
        assert result.to_dict()["approximate"] is False

    def test_summary_names_truncated_runs(self):
        # every run of the spin-wait is cut at the event limit, and the
        # verdict must say so instead of a bare "no bug found"
        result = check(spin_wait(),
                       limits=ExplorationLimits(max_events_per_schedule=200),
                       max_schedules=3)
        stats = result.stats
        assert not result.bug_found
        assert stats.num_truncated == stats.num_schedules > 0
        assert stats.num_complete == 0
        n = stats.num_truncated
        assert f"truncated: {n} of {n} runs" in result.summary()
        assert f"trunc={n}" in stats.summary()

    def test_old_payload_reads_as_exact(self):
        # payloads written before the field existed carry no key
        payload = check(racy_main).to_dict()
        del payload["approximate"]
        assert CheckResult.from_dict(payload).approximate is False

    def test_unknown_explorer_rejected(self):
        with pytest.raises(ValueError, match="unknown explorer"):
            check(racy_main, explorer="nope")

    def test_bad_target_rejected(self):
        with pytest.raises(TypeError, match="target"):
            check(42)

    def test_dsl_program_target(self):
        bench = all_benchmarks()[0]
        result = check(bench.program, explorer="dfs", max_schedules=200)
        assert result.program_name == bench.program.name
        assert result.stats.num_schedules >= 1

    def test_benchmark_target(self):
        bench = all_benchmarks()[0]
        result = check(bench, explorer="dpor", max_schedules=200)
        assert result.program_name == bench.program.name

    @staticmethod
    def _merged_single_seed_stats(explorer, seeds, max_schedules):
        merged = None
        for seed in seeds:
            stats = check(racy_main, explorer=explorer, seeds=(seed,),
                          max_schedules=max_schedules).stats
            if merged is None:
                merged = stats
            else:
                merged.merge(stats)
        return merged

    @staticmethod
    def _stats_dict(stats):
        d = stats.to_dict()
        d.pop("elapsed")
        return d

    def test_seeded_explorer_fans_out(self):
        result = check(racy_main, explorer="pct", seeds=(0, 1, 2),
                       max_schedules=30)
        assert result.seeds == (0, 1, 2)
        # the stats are the merge of all three seeded runs, not the
        # last seed's alone
        expected = self._merged_single_seed_stats("pct", (0, 1, 2), 30)
        assert self._stats_dict(result.stats) == self._stats_dict(expected)
        assert result.stats.num_schedules == 3 * 30

    def test_two_seeds_merge(self):
        result = check(racy_main, explorer="random", seeds=(0, 1),
                       max_schedules=20)
        assert result.seeds == (0, 1)
        expected = self._merged_single_seed_stats("random", (0, 1), 20)
        assert self._stats_dict(result.stats) == self._stats_dict(expected)
        assert result.stats.num_schedules == 2 * 20

    @pytest.mark.parametrize("explorer", ["random", "pct"])
    def test_seeded_explorer_rejects_empty_seeds(self, explorer):
        with pytest.raises(ValueError, match="at least one seed"):
            check(racy_main, explorer=explorer, seeds=())

    def test_unseeded_explorer_uses_single_seed(self):
        result = check(racy_main, explorer="dpor", seeds=(0, 1, 2))
        assert result.seeds == (0,)

    def test_limits_and_overrides(self):
        lim = ExplorationLimits(max_schedules=5)
        result = check(clean_main, explorer="dfs", limits=lim)
        assert result.stats.num_schedules <= 5
        result = check(clean_main, explorer="dfs", limits=lim,
                       max_schedules=1)
        assert result.stats.num_schedules == 1

    def test_minimize_and_trace_toggles(self):
        result = check(racy_main, minimize=False, trace=False)
        assert result.bug_found
        assert result.minimized_schedule is None
        assert result.trace == []
        assert result.repro_schedule == result.schedule

    def test_name_and_args_passthrough(self):
        def parametrized(expected):
            c = Cell()
            c.value = expected
            assert c.value == expected

        result = check(parametrized, name="custom", args=(3,),
                       explorer="dfs")
        assert result.program_name == "custom"
        assert not result.bug_found
