"""Explorer micro-benchmark harness (``python -m repro bench``).

Measures replay-loop throughput — schedules/sec and events/sec — for a
fixed set of (explorer, benchmark) cells drawn from the ablation
programs in ``benchmarks/bench_explorers.py``: a diagonal racy counter,
the coarse-lock/disjoint-data program where the lazy HBR wins, and the
condvar-heavy bounded buffer.

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
  on >30% regressions without being fooled by slower runners.

Reports are JSON (``BENCH_<name>.json``); see README "Performance".
"""

from __future__ import annotations

import json
import os
import platform
import sys
import time
from dataclasses import dataclass
from typing import Any, Dict, List, Optional, Sequence

from ..core.engines import (
    BUILD_HINT,
    available_backends,
    engine_provenance,
    resolve_engine,
)
from ..explore import ExplorationLimits
from ..explore.controller import make_explorer, require_explorer
from ..ioutil import atomic_write_text
from ..suite import REGISTRY

#: Schema marker so unrelated JSON files are rejected early.
REPORT_KIND = "repro-bench"

#: Schema marker of the two-engine A/B reports (``bench --engine both``).
AB_REPORT_KIND = "repro-bench-ab"

#: Schema marker of the frontier split/resume scenario reports.
SPLIT_REPORT_KIND = "repro-bench-split"

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


def _case_limits(case: BenchCase) -> ExplorationLimits:
    return ExplorationLimits(max_schedules=case.max_schedules)


def _measure_case(case: BenchCase, min_time: float,
                  engine: Optional[str] = None) -> Dict[str, Any]:
    """Run ``case`` repeatedly until ``min_time`` seconds accumulate."""
    limits = _case_limits(case)
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
    fallback, different interpreter, different compiler.  Such pairs
    are still *compared* (calibration normalisation keeps the gate
    meaningful for same-provenance rows), but the mismatch must be
    loud: a 3x compiled win silently measured against a fallback
    baseline reads as a regression fixed, and vice versa.
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


def _engine_fingerprint_sets(case: BenchCase, engine: str) -> Dict[str, Any]:
    """One full exploration of ``case`` under ``engine``; the observable
    outcome sets the A/B harness compares."""
    stats = make_explorer(
        case.explorer, REGISTRY[case.bench_id].program, _case_limits(case),
        engine=engine,
    ).run()
    return {
        "schedules": stats.num_schedules,
        "hbr_fps": frozenset(stats.hbr_fps),
        "lazy_fps": frozenset(stats.lazy_fps),
        "state_hashes": frozenset(stats.state_hashes),
    }


def run_engine_ab(
    cases: Optional[Sequence[str]] = None,
    smoke: bool = False,
    repeat: int = 3,
    min_time: float = 0.25,
    progress=None,
) -> Dict[str, Any]:
    """``bench --engine both``: measure every case under ``ref`` and
    the compiled ``native`` kernel.  Raises ``ValueError`` naming the
    build command when the kernel is not built (there is nothing to
    compare ``ref`` against).

    For each case the harness first runs one full exploration per
    engine and hard-fails (``AssertionError``) unless the fingerprint
    sets, state-hash sets and schedule counts are identical to the
    reference — the byte-identical contract, enforced in the same
    process that is about to publish numbers.  Then per-engine
    measurement rounds are interleaved (best kept per engine) so
    machine noise hits every backend evenly.
    """
    engines = list(available_backends())
    if len(engines) < 2:
        raise ValueError(
            "--engine both compares ref with the compiled native kernel, "
            f"which is not built; run `{BUILD_HINT}` first"
        )
    selected = _select_cases(cases)
    if smoke:
        repeat = min(repeat, 2)
        min_time = min(min_time, 0.2)

    report: Dict[str, Any] = {
        "meta": {
            "kind": AB_REPORT_KIND,
            "smoke": bool(smoke),
            "repeat": repeat,
            "min_time": min_time,
            "engines": engines,
            "provenance": {e: engine_provenance(e) for e in engines},
            "python": platform.python_version(),
            "implementation": platform.python_implementation(),
            "calibration_ops_per_sec": _calibrate(),
        },
        "cases": {},
    }
    for case in selected:
        outcomes = {e: _engine_fingerprint_sets(case, e) for e in engines}
        ref_out = outcomes["ref"]
        for name, out in outcomes.items():
            if out != ref_out:
                diverged = sorted(
                    k for k in ref_out if ref_out[k] != out[k]
                )
                raise AssertionError(
                    f"engine divergence on {case.name}: ref and {name} "
                    f"disagree on {', '.join(diverged)} "
                    f"(ref {ref_out['schedules']} schedules, {name} "
                    f"{out['schedules']})"
                )
        best: Dict[str, Optional[Dict[str, Any]]] = dict.fromkeys(engines)
        for _ in range(max(1, repeat)):
            for name in engines:
                m = _measure_case(case, min_time, engine=name)
                b = best[name]
                if b is None or m["schedules_per_sec"] > b["schedules_per_sec"]:
                    best[name] = m
        ref_rate = best["ref"]["schedules_per_sec"]
        entry = {
            "explorer": case.explorer,
            "bench_id": case.bench_id,
            "program": REGISTRY[case.bench_id].program.name,
            "max_schedules": case.max_schedules,
            "schedules": best["ref"]["schedules"],
            "equivalent": True,
            "speedups": {
                name: best[name]["schedules_per_sec"] / ref_rate
                for name in engines if name != "ref"
            },
        }
        for name in engines:
            entry[name] = {**best[name], "engine": name}
        report["cases"][case.name] = entry
        if progress is not None:
            rates = " ".join(
                f"{name} {best[name]['schedules_per_sec']:>9,.0f}"
                for name in engines
            )
            ratios = ", ".join(
                f"{name} {ratio:.2f}x"
                for name, ratio in entry["speedups"].items()
            )
            progress(
                f"{case.name:<34} {rates} sched/s "
                f"({ratios}; fingerprints equal)"
            )
    return report


def run_split_bench(
    shards: int = 4,
    smoke: bool = False,
    progress=None,
) -> Dict[str, Any]:
    """The frontier split/resume scenario (``bench --scenario split``).

    Two measurements on one exhaustible DFS campaign cell:

    * **split speedup** — wall-clock of the unsplit serial cell vs the
      same cell seeded, ``Frontier.split(k)``-sharded and run on a
      ``k``-worker pool (``campaign --split-large k --jobs k``).  Both
      runs exhaust the identical schedule set (enforced: the merged
      fingerprint sets must equal the serial run's), so the ratio is a
      true intra-cell scaling number, not budget inflation.
    * **resume overhead** — time to ``snapshot()`` a half-explored
      frontier, JSON round-trip it, and ``restore()`` — the cost a
      checkpointed campaign pays per cell to survive interruption.

    Smoke mode uses a smaller cell so CI stays fast.
    """
    from ..campaign import CampaignCell, run_campaign
    from ..explore import ExplorationLimits
    from ..explore.controller import make_explorer

    # disjoint_coarse(3,2): 8844-schedule exhaustive DFS cell (~1.5 s
    # serial) — large enough to amortise pool startup; the smoke cell
    # (racy_counter(3,1), 1680 schedules) keeps CI under a second
    bench_id = 4 if smoke else 13
    cells = [CampaignCell(bench_id, "dfs")]
    limits = ExplorationLimits()

    t0 = time.perf_counter()
    serial = run_campaign(cells, limits, jobs=1)
    serial_seconds = time.perf_counter() - t0

    t0 = time.perf_counter()
    split = run_campaign(cells, limits, jobs=shards, split_large=shards)
    split_seconds = time.perf_counter() - t0

    s_stats, p_stats = serial.results[0].stats, split.results[0].stats
    if (s_stats.hbr_fps != p_stats.hbr_fps
            or s_stats.state_hashes != p_stats.state_hashes
            or s_stats.num_schedules != p_stats.num_schedules):
        raise AssertionError(
            "split campaign diverged from the serial cell "
            f"(serial {s_stats.num_schedules} schedules, split "
            f"{p_stats.num_schedules})"
        )

    # resume overhead: snapshot/restore a half-explored frontier
    program = REGISTRY[bench_id].program
    explorer = make_explorer(
        "dfs", program,
        ExplorationLimits(max_schedules=s_stats.num_schedules // 2),
    )
    explorer.run()
    t0 = time.perf_counter()
    snapshot = explorer.snapshot()
    payload = json.dumps(snapshot)
    snapshot_seconds = time.perf_counter() - t0
    resumed = make_explorer("dfs", program, ExplorationLimits())
    t0 = time.perf_counter()
    resumed.restore(json.loads(payload))
    restore_seconds = time.perf_counter() - t0
    resumed_stats = resumed.run()
    if resumed_stats.num_schedules != s_stats.num_schedules:
        raise AssertionError(
            "resumed run diverged: "
            f"{resumed_stats.num_schedules} != {s_stats.num_schedules}"
        )

    report = {
        "meta": {
            "kind": SPLIT_REPORT_KIND,
            "smoke": bool(smoke),
            "python": platform.python_version(),
            "implementation": platform.python_implementation(),
            # split speedup is bounded by physical parallelism; a
            # 1-core runner can only show the (small) sharding overhead
            "cpu_count": os.cpu_count(),
        },
        "split": {
            "bench_id": bench_id,
            "program": program.name,
            "explorer": "dfs",
            "shards": shards,
            "schedules": s_stats.num_schedules,
            "serial_seconds": serial_seconds,
            "split_seconds": split_seconds,
            "speedup": serial_seconds / split_seconds,
        },
        "resume": {
            "checkpoint_schedules": s_stats.num_schedules // 2,
            "frontier_items": len(snapshot["frontier"]["items"]),
            "snapshot_bytes": len(payload),
            "snapshot_seconds": snapshot_seconds,
            "restore_seconds": restore_seconds,
        },
    }
    if progress is not None:
        progress(
            f"split x{shards} on {program.name}: "
            f"{serial_seconds:.2f}s serial -> {split_seconds:.2f}s "
            f"({report['split']['speedup']:.2f}x); resume snapshot "
            f"{len(payload):,} bytes in {snapshot_seconds*1e3:.1f}ms"
        )
    return report


def profile_case(case_name: str, out_path: str,
                 max_schedules: Optional[int] = None) -> None:
    """cProfile one run of a named case and dump pstats to ``out_path``
    (load with ``python -m pstats``).  CI attaches this for the slowest
    measured case so regressions come with a profile to read."""
    import cProfile

    case = next(c for c in CASES if c.name == case_name)
    limits = _case_limits(case)
    if max_schedules is not None:
        limits.max_schedules = max_schedules
    program = REGISTRY[case.bench_id].program
    explorer = make_explorer(case.explorer, program, limits)
    profiler = cProfile.Profile()
    profiler.enable()
    explorer.run()
    profiler.disable()
    profiler.dump_stats(out_path)


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


def ab_table(report: Dict[str, Any]) -> str:
    """Markdown table of a ``--engine both`` A/B report, one rate
    column per measured engine plus speedup-vs-ref columns."""
    engines = report["meta"]["engines"]
    others = [e for e in engines if e != "ref"]
    header = (
        "| case | "
        + " | ".join(f"{e} sched/s" for e in engines)
        + " | "
        + " | ".join(f"{e} speedup" for e in others)
        + " |"
    )
    out = [header, "|---|" + "---:|" * (len(engines) + len(others))]
    for name in sorted(report["cases"]):
        c = report["cases"][name]
        rates = " | ".join(
            f"{c[e]['schedules_per_sec']:,.0f}" for e in engines
        )
        ratios = " | ".join(f"{c['speedups'][e]:.2f}x" for e in others)
        out.append(f"| {name} | {rates} | {ratios} |")
    return "\n".join(out)


def main(args) -> int:  # pragma: no cover - exercised via the CLI tests
    """Entry point for ``python -m repro bench``."""
    if getattr(args, "scenario", "micro") == "split":
        try:
            report = run_split_bench(
                shards=args.shards,
                smoke=args.smoke,
                progress=print if not args.quiet else None,
            )
        except AssertionError as exc:
            print(f"error: {exc}", file=sys.stderr)
            return 1
        split, resume = report["split"], report["resume"]
        print(
            f"split speedup: {split['speedup']:.2f}x over "
            f"{split['schedules']} schedules "
            f"({split['shards']} shards); snapshot/restore "
            f"{resume['snapshot_seconds']*1e3:.1f}/"
            f"{resume['restore_seconds']*1e3:.1f} ms"
        )
        if args.out:
            write_report(report, args.out)
            print(f"wrote {args.out}")
        return 0
    cases = args.cases.split(",") if args.cases else None
    engine = getattr(args, "engine", None)
    if engine == "both":
        try:
            report = run_engine_ab(
                cases=cases,
                smoke=args.smoke,
                repeat=args.repeat,
                min_time=args.min_time,
                progress=print if not args.quiet else None,
            )
        except KeyError as exc:
            print(f"error: {exc.args[0]}", file=sys.stderr)
            return 2
        except ValueError as exc:  # the compiled kernel is not built
            print(f"error: {exc}", file=sys.stderr)
            return 2
        except AssertionError as exc:
            print(f"error: {exc}", file=sys.stderr)
            return 1
        print()
        print(ab_table(report))
        if args.out:
            write_report(report, args.out)
            print(f"\nwrote {args.out}")
        return 0
    try:
        report = run_bench(
            cases=cases,
            smoke=args.smoke,
            repeat=args.repeat,
            min_time=args.min_time,
            progress=print if not args.quiet else None,
            engine=engine,
        )
    except KeyError as exc:
        print(f"error: {exc.args[0]}", file=sys.stderr)
        return 2
    except ValueError as exc:
        # an explicit engine that the registry rejects (unknown or
        # unavailable in this environment)
        print(f"error: {exc}", file=sys.stderr)
        return 2
    print()
    print(bench_table(report))
    if args.out:
        write_report(report, args.out)
        print(f"\nwrote {args.out}")
    if getattr(args, "profile", None):
        slowest = min(
            report["cases"],
            key=lambda n: report["cases"][n]["schedules_per_sec"],
        )
        profile_case(slowest, args.profile)
        print(f"profiled slowest case {slowest} -> {args.profile}")
    if args.baseline:
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
        missing = sorted(n for n in report["cases"]
                         if n not in baseline["cases"])
        if missing:
            for name in missing:
                print(f"error: case {name!r} missing from baseline "
                      f"{args.baseline}; regenerate the baseline "
                      f"(bench --out) to cover it", file=sys.stderr)
            return 1
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
