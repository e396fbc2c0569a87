"""Explorer micro-benchmark harness (``python -m repro bench``).

Measures replay-loop throughput — schedules/sec and events/sec — for a
fixed set of (explorer, benchmark) cells: a diagonal racy counter, the
coarse-lock/disjoint-data program where the lazy HBR wins, the
condvar-heavy bounded buffer, a channel pipeline and a timed-retry
program.  It is CI's regression gate against a committed baseline;
performance claims come from the interleaved A/B runs of
``perfbench/``, which report their spread.

Methodology
-----------
* Each case is re-run (fresh explorer + program instance per
  iteration, exactly like real exploration) until at least
  ``min_time`` seconds have accumulated, and the whole measurement is
  repeated ``repeat`` times; the **best** rate is reported, which is
  the standard way to suppress scheduling noise on shared machines.
* A pure-Python *calibration* workload is timed alongside and stored
  in the report, so two reports taken on machines of different speeds
  can be compared via calibration-normalised ratios
  (:func:`compare_reports`).  The CI bench-smoke job uses this to fail
  on >30% regressions without being fooled by slower runners.  Rows
  measured on different clock engines are never compared: the gate
  refuses them (exit 2).

Reports are JSON (``BENCH_<name>.json``); see README "Performance".
"""

from __future__ import annotations

import json
import platform
import sys
import time
from dataclasses import dataclass
from typing import Any, Dict, List, Optional, Sequence

from ..core.engines import BUILD_HINT, engine_provenance, resolve_engine
from ..explore import ExplorationLimits
from ..explore.controller import make_explorer, require_explorer
from ..ioutil import atomic_write_text
from ..suite import REGISTRY

#: Schema marker so unrelated JSON files are rejected early.
REPORT_KIND = "repro-bench"

#: Calibration-normalised slowdown beyond which the comparison fails.
DEFAULT_MAX_REGRESSION = 0.30

#: Floor on measurement iterations per round.  The min_time loop alone
#: let slow cells calibrate to two iterations (dfs/bounded_buffer_pc2
#: historically), where a single scheduler hiccup lands on half the
#: sample; three is the least count at which best-of still has a
#: majority of clean iterations to pick from.
MIN_ITERATIONS = 3


@dataclass(frozen=True)
class BenchCase:
    """One (explorer, benchmark) throughput measurement."""

    name: str           #: report key, ``<explorer>/<program label>``
    explorer: str       #: STANDARD_EXPLORERS strategy name
    bench_id: int       #: suite benchmark id
    max_schedules: int  #: per-iteration schedule budget


#: The explorer microbenchmarks.  Budgets are sized so one iteration
#: finishes in well under a second; the harness loops iterations until
#: ``min_time`` is reached, so tiny cells still time accurately.
CASES: List[BenchCase] = [
    BenchCase("dfs/racy_counter", "dfs", 4, 20_000),
    BenchCase("dfs/bounded_buffer", "dfs", 24, 2_000),
    BenchCase("dfs/bounded_buffer_pc2", "dfs", 27, 2_000),
    BenchCase("dpor/racy_counter", "dpor", 4, 20_000),
    BenchCase("dpor/disjoint_coarse", "dpor", 13, 20_000),
    BenchCase("lazy-dpor/disjoint_coarse", "lazy-dpor", 13, 20_000),
    BenchCase("hbr-caching/bounded_buffer", "hbr-caching", 24, 2_000),
    BenchCase("lazy-hbr-caching/disjoint_coarse", "lazy-hbr-caching",
              13, 20_000),
    BenchCase("lazy-hbr-caching/bounded_buffer_pc2", "lazy-hbr-caching",
              27, 2_000),
    BenchCase("preempt-bounded/bounded_buffer", "preempt-bounded", 24,
              1_000),
    BenchCase("random/bounded_buffer", "random", 24, 400),
    BenchCase("pct/bounded_buffer", "pct", 24, 400),
    # the message-passing family: a deep two-stage channel pipeline
    # (81) exercising the protocol-dispatched CHAN_* hot path
    BenchCase("dfs/chan_pipeline2", "dfs", 81, 2_000),
    BenchCase("dpor/chan_pipeline2", "dpor", 81, 2_000),
    BenchCase("lazy-hbr-caching/chan_pipeline2", "lazy-hbr-caching",
              81, 2_000),
    # the virtual-time family: timed-lock retries with backoff sleeps
    # (93) exercising the SLEEP/TIME_FIRE clock path in both the
    # enumerating and reducing explorers
    BenchCase("dfs/retry_backoff", "dfs", 93, 2_000),
    BenchCase("lazy-hbr-caching/retry_backoff", "lazy-hbr-caching",
              93, 2_000),
]


def case_names() -> List[str]:
    return [c.name for c in CASES]


def _calibrate(loops: int = 200_000) -> float:
    """Ops/sec of a fixed pure-Python workload (int + list churn),
    used to normalise throughput across machines of different speeds."""
    best = float("inf")
    for _ in range(3):
        t0 = time.perf_counter()
        acc = 0
        xs = [0] * 16
        for i in range(loops):
            acc += i & 7
            xs[i & 15] = acc
            if xs[0] > 1 << 40:  # pragma: no cover - never taken
                xs[0] = 0
        best = min(best, time.perf_counter() - t0)
    return loops / best


def _measure_case(case: BenchCase, min_time: float,
                  engine: Optional[str] = None) -> Dict[str, Any]:
    """Run ``case`` repeatedly until ``min_time`` seconds accumulate."""
    limits = ExplorationLimits(max_schedules=case.max_schedules)
    program = REGISTRY[case.bench_id].program
    total_sched = total_events = iterations = 0
    total_time = 0.0
    while total_time < min_time or iterations < MIN_ITERATIONS:
        explorer = make_explorer(case.explorer, program, limits,
                                 engine=engine)
        t0 = time.perf_counter()
        stats = explorer.run()
        total_time += time.perf_counter() - t0
        total_sched += stats.num_schedules
        total_events += stats.num_events
        iterations += 1
    return {
        "schedules": total_sched // iterations,
        "events": total_events // iterations,
        "iterations": iterations,
        "elapsed": total_time,
        "schedules_per_sec": total_sched / total_time,
        "events_per_sec": total_events / total_time,
    }


def _select_cases(cases: Optional[Sequence[str]]) -> List[BenchCase]:
    selected = CASES
    if cases:
        by_name = {c.name: c for c in CASES}
        unknown = [n for n in cases if n not in by_name]
        if unknown:
            raise KeyError(
                f"unknown bench case(s) {unknown}; available: {case_names()}"
            )
        selected = [by_name[n] for n in cases]
    for case in selected:
        require_explorer(case.explorer)
    return selected


def run_bench(
    cases: Optional[Sequence[str]] = None,
    smoke: bool = False,
    repeat: int = 3,
    min_time: float = 0.25,
    progress=None,
    engine: Optional[str] = None,
) -> Dict[str, Any]:
    """Run the micro-benchmarks and return the JSON-ready report.

    ``engine`` pins the clock-engine backend for every case
    (``"ref"``/``"native"``; ``None`` = the registry's auto pick).
    Every case row records the backend it actually ran under
    (``"engine"``) and how that backend was built (``"provenance"``:
    compiled or not, interpreter, compiler), so reports are
    self-describing and cross-provenance comparisons can warn
    (:func:`provenance_warnings`).
    """
    selected = _select_cases(cases)
    resolved = resolve_engine(engine)
    if smoke:
        # shorter than the default but long enough that a single noisy
        # scheduler hiccup cannot fake a >30% regression in CI
        repeat = min(repeat, 2)
        min_time = min(min_time, 0.2)

    calibration = _calibrate()
    report: Dict[str, Any] = {
        "meta": {
            "kind": REPORT_KIND,
            "smoke": bool(smoke),
            "repeat": repeat,
            "min_time": min_time,
            "engine": engine or "auto",
            "python": platform.python_version(),
            "implementation": platform.python_implementation(),
            "calibration_ops_per_sec": calibration,
        },
        "cases": {},
    }
    for case in selected:
        best: Optional[Dict[str, Any]] = None
        for _ in range(max(1, repeat)):
            m = _measure_case(case, min_time, engine=engine)
            if best is None or m["schedules_per_sec"] > best["schedules_per_sec"]:
                best = m
        entry = {
            "explorer": case.explorer,
            "bench_id": case.bench_id,
            "program": REGISTRY[case.bench_id].program.name,
            "max_schedules": case.max_schedules,
            "engine": resolved,
            "provenance": engine_provenance(resolved),
            **best,
        }
        report["cases"][case.name] = entry
        if progress is not None:
            prov = entry["provenance"]
            how = "compiled" if prov["compiled"] else "pure"
            progress(
                f"{case.name:<34} {entry['schedules_per_sec']:>10,.0f} "
                f"sched/s {entry['events_per_sec']:>12,.0f} ev/s "
                f"({entry['iterations']} iter, {entry['engine']}/{how})"
            )
    return report


def provenance_warnings(
    current: Dict[str, Any], baseline: Dict[str, Any]
) -> List[str]:
    """Human-readable warnings for shared cases whose engine provenance
    differs between two reports — compiled kernel vs the ``ref``
    fallback, different interpreter, different compiler.  The CLI gate
    refuses rows measured on different engines outright; rows on the
    same engine but built differently are still *compared*, with these
    warnings printed first.
    """
    warnings: List[str] = []
    for name, base in baseline.get("cases", {}).items():
        cur = current["cases"].get(name)
        if cur is None:
            continue
        bp, cp = base.get("provenance"), cur.get("provenance")
        if bp == cp:
            continue
        if bp is None or cp is None:
            missing = "baseline" if bp is None else "current"
            warnings.append(
                f"{name}: {missing} report predates provenance "
                f"recording; regenerate it (bench --out) before "
                f"trusting cross-report ratios"
            )
            continue
        diffs = ", ".join(
            f"{k}: {bp.get(k)} -> {cp.get(k)}"
            for k in sorted(set(bp) | set(cp))
            if bp.get(k) != cp.get(k)
        )
        warnings.append(
            f"{name}: engine provenance differs from baseline ({diffs})"
        )
    return warnings


def write_report(report: Dict[str, Any], path: str) -> None:
    # crash-safe: a killed bench run never leaves a torn BENCH_*.json
    atomic_write_text(
        path, json.dumps(report, indent=1, sort_keys=True) + "\n"
    )


def load_report(path: str) -> Dict[str, Any]:
    with open(path) as fh:
        report = json.load(fh)
    meta = report.get("meta") or {}
    if meta.get("kind") != REPORT_KIND:
        raise ValueError(f"{path} is not a {REPORT_KIND} report")
    if not isinstance(report.get("cases"), dict) or not isinstance(
            meta.get("calibration_ops_per_sec"), (int, float)):
        raise ValueError(
            f"{path} is missing required {REPORT_KIND} fields "
            f"(cases, meta.calibration_ops_per_sec)"
        )
    return report


def compare_reports(
    current: Dict[str, Any],
    baseline: Dict[str, Any],
    max_regression: float = DEFAULT_MAX_REGRESSION,
) -> List[str]:
    """Regression check, normalised by each report's calibration.

    Returns human-readable failure lines for every shared case whose
    calibration-normalised schedules/sec dropped more than
    ``max_regression`` (fraction) below the baseline.  Cases present in
    only one report are ignored (the case set may evolve).
    """
    failures: List[str] = []
    cur_cal = current["meta"]["calibration_ops_per_sec"]
    base_cal = baseline["meta"]["calibration_ops_per_sec"]
    for name, base in baseline["cases"].items():
        cur = current["cases"].get(name)
        if cur is None:
            continue
        base_norm = base["schedules_per_sec"] / base_cal
        cur_norm = cur["schedules_per_sec"] / cur_cal
        if base_norm <= 0:
            continue
        ratio = cur_norm / base_norm
        if ratio < 1.0 - max_regression:
            failures.append(
                f"{name}: {cur['schedules_per_sec']:,.0f} sched/s is "
                f"{(1.0 - ratio) * 100:.0f}% below baseline "
                f"{base['schedules_per_sec']:,.0f} "
                f"(calibration-normalised ratio {ratio:.2f})"
            )
    return failures


def bench_table(report: Dict[str, Any]) -> str:
    """Markdown table of one report, for terminals and PR descriptions."""
    out = [
        "| case | engine | schedules/s | events/s | schedules | iterations |",
        "|---|---|---:|---:|---:|---:|",
    ]
    for name in sorted(report["cases"]):
        c = report["cases"][name]
        out.append(
            f"| {name} | {c.get('engine', 'ref')} | "
            f"{c['schedules_per_sec']:,.0f} | "
            f"{c['events_per_sec']:,.0f} | {c['schedules']} | "
            f"{c['iterations']} |"
        )
    return "\n".join(out)


def main(args) -> int:  # pragma: no cover - exercised via the CLI tests
    """Entry point for ``python -m repro bench``."""
    cases = args.cases.split(",") if args.cases else None
    try:
        selected = _select_cases(cases)
        # an explicit engine that the registry rejects (unknown or
        # unavailable in this environment) raises ValueError
        resolved = resolve_engine(args.engine)
    except KeyError as exc:
        print(f"error: {exc.args[0]}", file=sys.stderr)
        return 2
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    baseline = None
    if args.baseline:
        # the baseline is read and checked before anything is measured,
        # so a run it would refuse costs no measurement time
        try:
            baseline = load_report(args.baseline)
        except (OSError, ValueError, KeyError) as exc:
            print(f"error: cannot use baseline {args.baseline}: {exc}",
                  file=sys.stderr)
            return 2
        # compare_reports is deliberately lenient about disjoint case
        # sets (reports from different eras stay comparable), but the
        # CLI gate must not silently pass a case the baseline has never
        # measured — that reads as "no regression" when nothing was
        # checked at all
        missing = sorted(c.name for c in selected
                         if c.name not in baseline["cases"])
        if missing:
            for name in missing:
                print(f"error: case {name!r} missing from baseline "
                      f"{args.baseline}; regenerate the baseline "
                      f"(bench --out) to cover it", file=sys.stderr)
            return 1
        # ref runs the cases about 1.2-1.5x slower than the C kernel,
        # most of the gate's threshold, so a cross-engine ratio mixes
        # the engine gap into the regression check: refuse instead
        unlike = sorted(
            c.name for c in selected
            if resolved != baseline["cases"][c.name].get("engine")
        )
        if unlike:
            for name in unlike:
                base_engine = baseline["cases"][name].get("engine")
                print(f"error: case {name!r} ran on {resolved!r} but "
                      f"baseline {args.baseline} measured it on "
                      f"{base_engine!r}; rerun with --engine "
                      f"{base_engine} (the native engine needs "
                      f"`{BUILD_HINT}`)", file=sys.stderr)
            return 2
    report = run_bench(
        cases=cases,
        smoke=args.smoke,
        repeat=args.repeat,
        min_time=args.min_time,
        progress=print if not args.quiet else None,
        engine=args.engine,
    )
    print()
    print(bench_table(report))
    if args.out:
        write_report(report, args.out)
        print(f"\nwrote {args.out}")
    if baseline is not None:
        for line in provenance_warnings(report, baseline):
            print(f"WARNING: {line}", file=sys.stderr)
        failures = compare_reports(report, baseline, args.max_regression)
        if failures:
            for line in failures:
                print(f"REGRESSION {line}", file=sys.stderr)
            return 1
        print(f"no regressions vs {args.baseline} "
              f"(threshold {args.max_regression:.0%})")
    return 0
