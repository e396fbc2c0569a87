"""The benchmark's three closed-loop workloads.

Each workload is one caller in one process, issuing its next request
only when the previous one has returned; there is no pool and no
wall-clock budget, so every round does exactly the same work.  The
workload seed only permutes the order of requests.  README.md in this
directory says why each workload exists and which layer it stresses.

A workload builds its inputs in :meth:`setup` (timed as set-up) and
runs one round in :meth:`run_round`, which times every request in
nominal seconds (see meter.py), then checks every output against a
known answer outside the timed region.
"""

from __future__ import annotations

import importlib
import json
import random
import sys
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Dict, List, Optional, Tuple

from meter import Meter

REFERENCE_FILE = Path(__file__).resolve().parent / "reference" / \
    "scaled_dpor_states.json"

#: suite ``expect_error`` tag -> the exception class an explorer reports
EXPECTED_KIND = {
    "deadlock": "DeadlockError",
    "assertion": "GuestAssertionError",
    "channel": "ChannelError",
}


@dataclass
class Request:
    """One timed request: a campaign cell, a check() verdict or one
    exhaustive exploration."""

    label: str
    seconds: float         #: nominal seconds
    raw: float             #: wall-clock seconds
    off_cpu: float         #: wall seconds spent waiting, within ``seconds``
    bug: bool = False


@dataclass
class Round:
    """What one round did and which of its outputs were wrong."""

    requests: List[Request]
    #: nominal, raw and off-CPU seconds of work after the last request
    #: (the campaign's report and figure rows)
    post_s: float = 0.0
    post_raw: float = 0.0
    post_off_cpu: float = 0.0
    #: (label, message) per failed check; a label names a request, so
    #: several failed checks on one request count it once
    failures: List[Tuple[str, str]] = field(default_factory=list)
    minimize_replays: int = 0
    rows: List[Dict[str, Any]] = field(default_factory=list)
    #: filled by the runner: (ExplorationStats, SnapshotTree.stats())
    explorations: List[Tuple[Any, Optional[Dict[str, Any]]]] = \
        field(default_factory=list)
    #: filled by the runner: the deterministic counts of the round
    counts: Dict[str, Any] = field(default_factory=dict)
    #: filled by the runner in traced rounds: span name -> [calls,
    #: total seconds, self seconds]
    spans: Dict[str, List[float]] = field(default_factory=dict)

    @property
    def failed_labels(self) -> set:
        return {label for label, _ in self.failures}

    @property
    def wall_s(self) -> float:
        return sum(q.seconds for q in self.requests) + self.post_s

    @property
    def raw_wall_s(self) -> float:
        return sum(q.raw for q in self.requests) + self.post_raw

    @property
    def off_cpu_s(self) -> float:
        return sum(q.off_cpu for q in self.requests) + self.post_off_cpu


class Workload:
    """One workload; :attr:`meter` times its requests (and is ticked
    inside explorations by the runner's probe)."""

    name = ""
    #: what one request is, for the human-readable metric names
    noun = ""
    #: the percentile reported as ``tail_ms``: the highest with at least
    #: ten requests beyond it, or p90 when there are too few requests
    tail_pct = 90

    def __init__(self) -> None:
        self.meter = Meter()

    def setup(self, seed: int, smoke: bool, tracer) -> None:
        raise NotImplementedError

    def run_round(self) -> Round:
        raise NotImplementedError


def _shuffled(items: List[Any], seed: int) -> List[Any]:
    items = list(items)
    random.Random(seed).shuffle(items)
    return items


# ---------------------------------------------------------------------------
class PaperCampaign(Workload):
    """The paper's evaluation: the default campaign, serially."""

    name = "paper-campaign"
    noun = "cell"
    tail_pct = 95
    EXPLORERS = ("dpor", "hbr-caching", "lazy-hbr-caching")
    LIMIT = 2_000
    SMOKE_IDS = (1, 2, 10, 36, 84, 89)
    SMOKE_LIMIT = 200

    def setup(self, seed, smoke, tracer):
        with tracer.span("suite.build", "import of repro.suite (REGISTRY)"):
            suite = importlib.import_module("repro.suite")
        from repro.explore.base import ExplorationLimits

        self.campaign = importlib.import_module("repro.campaign")
        self.figures = importlib.import_module("repro.analysis.runner")
        self.registry = suite.REGISTRY
        self.ids = list(self.SMOKE_IDS) if smoke else sorted(self.registry)
        self.cells = _shuffled(
            self.campaign.build_cells(self.ids, self.EXPLORERS), seed)
        self.limits = ExplorationLimits(
            max_schedules=self.SMOKE_LIMIT if smoke else self.LIMIT)

    def run_round(self):
        camp, figures = self.campaign, self.figures
        meter = self.meter
        requests: List[Request] = []

        def on_result(cell_result) -> None:
            # runs between cells: one cell per request
            times = meter.stop()
            cell = cell_result.cell
            bug = self.registry[cell.bench_id].expect_error is not None
            requests.append(Request(cell.key, *times, bug))
            meter.start()

        meter.start()
        result = camp.run_campaign(self.cells, self.limits, jobs=1,
                                   on_result=on_result)
        fig2 = figures.figure2_rows_from_cells(result.results)
        fig3 = figures.figure3_rows_from_cells(result.results)
        report = camp.campaign_report(result, self.limits, figure2=fig2,
                                      figure3=fig3).to_dict()
        post_s, post_raw, post_off_cpu = meter.stop()

        out = Round(requests, post_s=post_s, post_raw=post_raw,
                    post_off_cpu=post_off_cpu)
        self._check(out, result, report, fig2, fig3)
        return out

    def _check(self, out, result, report, fig2, fig3):
        fail = out.failures.append
        if len(out.requests) != len(self.cells):
            fail(("campaign", f"{len(out.requests)} cells reported, "
                              f"{len(self.cells)} submitted"))
        by_bench: Dict[int, List[Any]] = {}
        for r in result.results:
            key = r.cell.key
            if not r.ok or r.stats is None:
                fail((key, f"cell failed: {(r.error or '?').splitlines()[0]}"))
                continue
            if r.unexpected_findings:
                fail((key, "findings on a benchmark without expect_error"))
            try:
                r.stats.verify_inequality()
            except AssertionError as exc:
                fail((key, str(exc)))
            expect = self.registry[r.cell.bench_id].expect_error
            if expect is not None and r.cell.explorer == "dpor":
                kinds = {e.kind for e in r.stats.errors}
                if EXPECTED_KIND[expect] not in kinds:
                    fail((key, f"dpor missed the expected {expect}"))
            if r.stats.exhausted:
                by_bench.setdefault(r.cell.bench_id, []).append(r)
        for bench_id, cells in sorted(by_bench.items()):
            if len({frozenset(r.stats.state_hashes) for r in cells}) > 1:
                fail((f"bench {bench_id}", "explorers that exhausted it "
                                           "disagree on terminal states"))
        if len(fig2) != len(self.ids) or len(fig3) != len(self.ids):
            fail(("figures", f"{len(fig2)} figure-2 and {len(fig3)} figure-3 "
                             f"rows for {len(self.ids)} benchmarks"))
        if report["summary"]["num_cells"] != len(self.cells):
            fail(("report", "report cell count differs from the campaign"))


# ---------------------------------------------------------------------------
@dataclass
class _Target:
    label: str
    target: Any            # what the user hands to check()
    expect_bug: bool       # the hand-written known answer
    program: Any           # the same program, for replaying witnesses


class CheckSuite(Workload):
    """``repro.check()`` with its defaults, request after request."""

    name = "check-suite"
    noun = "verdict"
    tail_pct = 90
    DEMOS = (("examples.real_code_demo", "pipeline"),
             ("examples.timed_retry_demo", "lease_worker"))
    SMOKE_IDS = (1, 10, 36, 47, 89)
    SMOKE_TWINS = 1

    def setup(self, seed, smoke, tracer):
        with tracer.span("suite.build",
                         "import of repro.suite (REGISTRY) and make_twins()"):
            suite = importlib.import_module("repro.suite")
            twins = importlib.import_module(
                "repro.suite.shim_twins").make_twins()
        instrument = importlib.import_module("repro.shim._instrument")
        shim_program = importlib.import_module("repro.shim.program")
        import repro

        self.check_module = sys.modules["repro.check"]
        self.execute = repro.execute
        ids = self.SMOKE_IDS if smoke else sorted(suite.REGISTRY)
        targets = []
        for bench_id in ids:
            bench = suite.REGISTRY[bench_id]
            targets.append(_Target(bench.name, bench,
                                   bench.expect_error is not None,
                                   bench.program))
        for pair in twins[:self.SMOKE_TWINS] if smoke else twins:
            for program in (pair.shim, pair.dsl):
                targets.append(_Target(program.name, program,
                                       pair.expect_error is not None,
                                       program))
        for module, attr in self.DEMOS[:1] if smoke else self.DEMOS:
            fn = getattr(importlib.import_module(module), attr)
            # check() instruments on first use and caches the result on
            # the function; a user pays that once, so set-up does here
            instrument.instrument(fn)
            targets.append(_Target(f"{module}:{attr}", fn, True,
                                   shim_program.program_from_function(fn)))
        self.targets = _shuffled(targets, seed)

    def run_round(self):
        check = self.check_module
        meter = self.meter
        done = []
        for tg in self.targets:
            meter.start()
            try:
                result = check.check(tg.target)
            except Exception as exc:  # noqa: BLE001 - fails the request
                result = exc
            done.append((tg, result, meter.stop()))

        out = Round([Request(tg.label, *times, tg.expect_bug)
                     for tg, _, times in done])
        fail = out.failures.append
        for tg, result, _ in done:
            if isinstance(result, Exception):
                fail((tg.label, f"check() raised {result!r}"))
                continue
            out.minimize_replays += result.minimize_replays
            if result.bug_found != tg.expect_bug:
                fail((tg.label, f"verdict bug={result.bug_found}, known "
                                f"answer bug={tg.expect_bug}"))
            if result.stats.limit_hit:
                fail((tg.label, "hit the schedule limit"))
            if not result.bug_found:
                continue
            if not result.trace:
                fail((tg.label, "bug verdict without a rendered witness"))
            replay = self.execute(tg.program, schedule=result.repro_schedule)
            kind = type(replay.error).__name__ if replay.error else None
            if kind != result.error_kind:
                fail((tg.label, f"witness replays to {kind}, verdict "
                                f"said {result.error_kind}"))
        return out


# ---------------------------------------------------------------------------
class ScaledDpor(Workload):
    """DPOR and lazy-DPOR to exhaustion on 3-5 thread instances."""

    name = "scaled-dpor"
    noun = "run"
    tail_pct = 90
    EXPLORERS = ("dpor", "lazy-dpor")
    #: (label, module, constructor, args), one entry per behaviour class
    #: member: racy, coarse-lock over disjoint/read-only data, sync
    #: primitives and channels
    POOL = (
        ("racy_counter(3,2)", "counters", "racy_counter", (3, 2)),
        ("disjoint_coarse(4,2)", "counters", "disjoint_coarse", (4, 2)),
        ("coarse_dict(4,2)", "collections_prog", "coarse_dict", (4, 2)),
        ("work_queue_private(4,2)", "collections_prog",
         "work_queue_private", (4, 2)),
        ("readonly_coarse(4,2)", "counters", "readonly_coarse", (4, 2)),
        ("mixed_coarse(4)", "counters", "mixed_coarse", (4,)),
        ("barrier_phases(3,2)", "sync_patterns", "barrier_phases", (3, 2)),
        ("semaphore_pool(4,2)", "sync_patterns", "semaphore_pool", (4, 2)),
        ("chan_fan_in(3,2)", "channels", "chan_fan_in", (3, 2)),
    )
    SMOKE_POOL = (
        ("racy_counter(2,2)", "counters", "racy_counter", (2, 2)),
        ("disjoint_coarse(3,1)", "counters", "disjoint_coarse", (3, 1)),
        ("semaphore_pool(3,1)", "sync_patterns", "semaphore_pool", (3, 1)),
        ("chan_fan_in(2,1)", "channels", "chan_fan_in", (2, 1)),
    )

    @classmethod
    def build_pool(cls, pool) -> Dict[str, Any]:
        programs = {}
        for label, module, ctor, ctor_args in pool:
            family = importlib.import_module(f"repro.suite.{module}")
            programs[label] = getattr(family, ctor)(*ctor_args)
        return programs

    def setup(self, seed, smoke, tracer):
        with tracer.span("suite.build", "import of repro.suite (REGISTRY) "
                                        "and the family constructors"):
            self.programs = self.build_pool(
                self.SMOKE_POOL if smoke else self.POOL)
            for program in self.programs.values():
                program.instantiate()
        from repro.explore.base import ExplorationLimits

        self.controller = importlib.import_module("repro.explore.controller")
        self.limits = ExplorationLimits()
        reference = json.loads(REFERENCE_FILE.read_text())["instances"]
        self.reference = {label: frozenset(reference[label]["states"])
                          for label in self.programs}
        self.order = _shuffled(
            [(label, explorer) for label in self.programs
             for explorer in self.EXPLORERS], seed)

    def run_round(self):
        run_single = self.controller.run_single
        meter = self.meter
        done = {}
        requests = []
        for label, explorer in self.order:
            meter.start()
            try:
                done[label, explorer] = run_single(
                    self.programs[label], explorer, self.limits,
                    verify=False)
            except Exception as exc:  # noqa: BLE001 - fails the request
                done[label, explorer] = exc
            requests.append(Request(f"{label}/{explorer}", *meter.stop()))

        out = Round(requests)
        fail = out.failures.append
        for (label, explorer), stats in sorted(done.items()):
            key = f"{label}/{explorer}"
            if isinstance(stats, Exception):
                fail((key, f"raised {stats!r}"))
                continue
            out.rows.append({
                "instance": label, "explorer": explorer,
                # lazy-DPOR's cache hits can prune race analysis a
                # suffix still needed: its counts are not exact
                "approximate": explorer == "lazy-dpor",
                "schedules": stats.num_schedules,
                "events": stats.num_events, "states": stats.num_states,
                "hbrs": stats.num_hbrs, "lazy_hbrs": stats.num_lazy_hbrs,
            })
            if not stats.exhausted:
                fail((key, "did not exhaust"))
            try:
                stats.verify_inequality()
            except AssertionError as exc:
                fail((key, str(exc)))
        for label in self.programs:
            if any(isinstance(done[label, e], Exception)
                   for e in self.EXPLORERS):
                continue
            dpor = done[label, "dpor"].state_hashes
            if dpor != self.reference[label]:
                fail((f"{label}/dpor", "terminal states differ from the "
                                       "recorded reference"))
            if not done[label, "lazy-dpor"].state_hashes <= dpor:
                fail((f"{label}/lazy-dpor", "terminal states not a subset "
                                            "of DPOR's"))
        return out


WORKLOADS = {w.name: w for w in (PaperCampaign, CheckSuite, ScaledDpor)}
