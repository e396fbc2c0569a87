"""Benchmark entry point: one workload per process.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
                             [--smoke] [--out FILE]

Runs from the repository root against ``src/`` as it is (uncompiled:
``auto`` resolves to the ``ref`` engine unless the C kernel was built).
Rounds of the workload repeat until ``--seconds`` is used up; every
metric is a median over rounds, and every time is in nominal seconds
(meter.py says why and how).  With ``--trace 0`` the last line of
standard output is the JSON result carrying every end-to-end metric of
BENCHMARK.json; with ``--trace 1`` it carries every per-layer metric,
measured with span wrappers installed on the layer boundaries.  The
exit code is 1 when any correctness or determinism check failed.
``--workload all`` runs each workload in its own process.
``--smoke`` shrinks every workload to a few requests (for self-tests).
"""

from __future__ import annotations

import argparse
import gc
import hashlib
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path
from typing import Any, Dict, List

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
STATE_DIR = HERE / ".state"
SETUP_PROBES = 11
SMOKE_SETUP_PROBES = 1


def _parse(argv) -> argparse.Namespace:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--smoke", action="store_true")
    ap.add_argument("--out", help="also write the full result document here")
    ap.add_argument("--setup-probe", action="store_true",
                    help=argparse.SUPPRESS)
    return ap.parse_args(argv)


def _spec() -> Dict[str, Any]:
    return json.loads((ROOT / "BENCHMARK.json").read_text())


# ---------------------------------------------------------------------------
# provenance

def _git_commit() -> Any:
    """HEAD read from .git without running git (the checkout may not be
    a repository, and git would search the directories above it)."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def _source_sha256() -> str:
    digest = hashlib.sha256()
    for base in ("src/repro", "examples", "perfbench"):
        for path in sorted((ROOT / base).rglob("*")):
            if path.suffix in (".py", ".c") and path.is_file():
                digest.update(str(path.relative_to(ROOT)).encode())
                digest.update(path.read_bytes())
    return digest.hexdigest()


def _provenance(seed: int) -> Dict[str, Any]:
    from repro.core.engines import (
        ENGINE_ENV, engine_provenance, native_compiled, resolve_engine)

    engine = resolve_engine()
    try:
        affinity = len(os.sched_getaffinity(0))
    except AttributeError:  # not on Linux
        affinity = None
    return {
        "workload_seed": seed,
        "git_commit": _git_commit(),
        "source_sha256": _source_sha256(),
        "nproc": os.cpu_count(),
        "cpu_affinity": affinity,
        "python": {
            "version": platform.python_version(),
            "implementation": platform.python_implementation(),
            "compiler": platform.python_compiler(),
            "build": list(platform.python_build()),
        },
        "platform": platform.platform(),
        "engine": engine,
        "engine_env": os.environ.get(ENGINE_ENV),
        "engine_provenance": engine_provenance(engine),
        "native_compiled": native_compiled(),
    }


# ---------------------------------------------------------------------------
# deterministic counts

def _counts(rnd) -> Dict[str, Any]:
    """Counts that depend only on the work, never on timing or order."""
    keys = ("schedules", "complete", "pruned", "events", "hbrs",
            "lazy_hbrs", "states", "errors", "cache_hits", "cache_size")
    tree_keys = ("hits", "misses", "inserts", "evictions", "rejected",
                 "resumed_events", "replayed_events", "bytes_high_water")
    counts = dict.fromkeys(keys, 0)
    counts.update(("tree_" + k, 0) for k in tree_keys)
    per_run = []
    for stats, tree in rnd.explorations:
        row = (stats.num_schedules, stats.num_complete, stats.num_pruned,
               stats.num_events, stats.num_hbrs, stats.num_lazy_hbrs,
               stats.num_states, len(stats.errors),
               stats.extra.get("cache_hits", 0),
               stats.extra.get("cache_size", 0))
        for key, value in zip(keys, row):
            counts[key] += value
        for key in tree_keys:
            value = tree[key] if tree else 0
            # the largest tree any one exploration held, not a sum
            counts["tree_" + key] = (max(counts["tree_" + key], value)
                                     if key == "bytes_high_water"
                                     else counts["tree_" + key] + value)
        per_run.append([stats.program_name, stats.explorer_name, *row,
                        sorted(stats.state_hashes)])
    counts["explorations"] = len(per_run)
    counts["minimize_replays"] = rnd.minimize_replays
    counts["digest"] = hashlib.sha256(
        json.dumps(sorted(per_run)).encode()).hexdigest()
    return counts


def _check_state_file(name: str, counts: Dict[str, Any],
                      provenance: Dict[str, Any]) -> List[str]:
    """Compare with the counts an earlier run of this same source tree,
    Python and clock engine recorded; the first run records them."""
    key = hashlib.sha256(json.dumps(
        [provenance["source_sha256"], provenance["python"],
         provenance["engine"]]).encode()).hexdigest()
    path = STATE_DIR / f"{name}-{key[:16]}.json"
    if path.is_file():
        recorded = json.loads(path.read_text())
        if recorded != counts:
            diff = sorted(k for k in counts if recorded.get(k) != counts[k])
            return [f"counts differ from an earlier run of this source: "
                    f"{', '.join(diff)}"]
        return []
    STATE_DIR.mkdir(exist_ok=True)
    tmp = path.with_suffix(f".{os.getpid()}.tmp")
    tmp.write_text(json.dumps(counts, sort_keys=True))
    os.replace(tmp, path)
    return []


# ---------------------------------------------------------------------------
# metrics

def _pct(values: List[float], pct: int) -> float:
    if len(values) == 1:
        return values[0]
    return statistics.quantiles(values, n=100, method="inclusive")[pct - 1]


def _median_of(rounds, fn) -> float:
    return statistics.median(fn(r) for r in rounds)


def _end_to_end(wl, rounds, setup_samples) -> Dict[str, float]:
    def rate(key):
        return lambda r: r.counts[key] / r.wall_s

    return {
        "setup_s": statistics.median(setup_samples),
        "wall_s": _median_of(rounds, lambda r: r.wall_s),
        "peak_rss_mb": resource.getrusage(
            resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "schedules_per_s": _median_of(rounds, rate("schedules")),
        "events_per_s": _median_of(rounds, rate("events")),
        "p50_ms": 1e3 * _median_of(
            rounds, lambda r: _pct([q.seconds for q in r.requests], 50)),
        "tail_ms": 1e3 * _median_of(
            rounds, lambda r: _pct([q.seconds for q in r.requests],
                                   wl.tail_pct)),
    }


def _aliases(wl, rounds, e2e) -> Dict[str, Any]:
    """The workload's own names for the shared metrics, with sample
    counts, plus the metrics only this workload has."""
    n = len(rounds[0].requests)
    beyond = round(n * (100 - wl.tail_pct) / 100.0, 1)
    out = {
        f"{wl.noun}_p50_ms": {"value": e2e["p50_ms"], "n": n},
        f"{wl.noun}_p{wl.tail_pct}_ms": {"value": e2e["tail_ms"], "n": n,
                                         "beyond": beyond},
    }
    bugs = [[q.seconds for q in r.requests if q.bug] for r in rounds]
    if bugs[0]:
        out[f"bug_{wl.noun}_p50_ms"] = {
            "value": 1e3 * statistics.median(_pct(b, 50) for b in bugs),
            "n": len(bugs[0])}
    return out


def _per_layer(traced, overhead_base, setup_spans,
               setup_scale) -> Dict[str, float]:
    """Per-layer metrics of the traced rounds (medians over rounds).
    Spans time raw seconds; each round's nominal/raw ratio (the set-up
    calibration's, for set-up spans) turns them into nominal ones."""
    def span(rnd, name, field):
        stat = rnd.spans.get(name)
        if not stat:
            return 0.0
        return stat[0] if field == 0 else \
            stat[field] * rnd.wall_s / rnd.raw_wall_s

    def med(fn):
        return statistics.median(fn(r) for r in traced)

    counts = traced[0].counts
    probes = counts["tree_hits"] + counts["tree_misses"]
    campaign_spans = ("campaign.run", "campaign.report",
                      "campaign.report_dict", "campaign.figure2",
                      "campaign.figure3")
    out = {
        "campaign.self_s": med(lambda r: sum(
            span(r, s, 2) for s in campaign_spans)),
        "check.self_s": med(lambda r: span(r, "check", 2)),
        "explore.run.calls": med(lambda r: span(r, "explore.run", 0)),
        "explore.self_s": med(lambda r: span(r, "explore.run", 2)),
        "explore.minimize_s": med(lambda r: span(r, "explore.minimize", 1)),
        "explore.minimize.replays": counts["minimize_replays"],
        "explore.snapshot_tree.hit_rate":
            counts["tree_hits"] / probes if probes else 0.0,
        "explore.snapshot_tree.resumed_events": counts["tree_resumed_events"],
        "explore.snapshot_tree.replayed_events":
            counts["tree_replayed_events"],
        "explore.snapshot_tree.bytes_high_water":
            counts["tree_bytes_high_water"],
        "explore.cache.hits": counts["cache_hits"],
        "explore.cache.size": counts["cache_size"],
        "explore.schedules": counts["schedules"],
        "explore.events": counts["events"],
        "explore.pruned": counts["pruned"],
        "explore.useful_ratio": (counts["lazy_hbrs"] / counts["schedules"]
                                 if counts["schedules"] else 0.0),
    }
    for name in ("runtime.executor_new", "runtime.step", "runtime.snapshot",
                 "runtime.restore", "runtime.finish", "core.observe"):
        out[f"{name}.calls"] = med(lambda r: span(r, name, 0))
        out[f"{name}_s"] = med(lambda r: span(r, name, 1))
    out["analysis.render_s"] = med(lambda r: span(r, "analysis.render", 1))
    for name in ("shim.instrument", "suite.build"):
        out[f"{name}_s"] = setup_spans.get(name, [0, 0.0, 0.0])[1] \
            * setup_scale
    out["trace.wall_s"] = med(lambda r: r.wall_s)
    out["trace.overhead"] = out["trace.wall_s"] / overhead_base
    return out


# ---------------------------------------------------------------------------
# running

def _setup_probe_samples(args) -> List[float]:
    """Set-up time of fresh processes: interpreter start, imports,
    registry, instrumentation and instance construction, up to the
    point where the first request could be issued.  Each probe reports
    its own nominal seconds; the raw wall seconds are timed here."""
    cmd = [sys.executable, str(HERE / "run.py"), "--workload",
           args.workload, "--seed", str(args.seed), "--seconds", "0",
           "--setup-probe"] + (["--smoke"] if args.smoke else [])
    samples = []
    for _ in range(SMOKE_SETUP_PROBES if args.smoke else SETUP_PROBES):
        start = time.perf_counter()
        with subprocess.Popen(cmd, cwd=ROOT, stdout=subprocess.PIPE,
                              text=True) as child:
            line = child.stdout.readline().split()
            raw = time.perf_counter() - start
            child.stdout.read()
            code = child.wait()
        if len(line) != 2 or line[0] != "ready" or code != 0:
            raise RuntimeError(f"set-up probe failed (exit {code})")
        samples.append((float(line[1]), raw))
    return samples


def _round(wl, probe, tracer=None, boundaries=()):
    gc.collect()
    if tracer is not None:
        tracer.reset()
        tracer.install(boundaries)
    try:
        rnd = wl.run_round()
    finally:
        if tracer is not None:
            tracer.uninstall()
    rnd.explorations = probe.take()
    rnd.counts = _counts(rnd)
    rnd.explorations = []  # the counts are all a round keeps of them
    rnd.spans = tracer.snapshot() if tracer is not None else {}
    return rnd


def run_workload(args) -> int:
    from meter import calibrate, cpu_time, slowdown
    from tracing import CORE_BOUNDARIES, LATE_BOUNDARIES, ExplorationProbe, \
        Tracer
    from workloads import WORKLOADS

    wl = WORKLOADS[args.workload]()
    tracer = Tracer()
    if args.trace:
        tracer.install(CORE_BOUNDARIES)
    before = calibrate()
    wl.setup(args.seed, args.smoke, tracer)
    after = calibrate()
    tracer.uninstall()
    setup_scale = 1 / slowdown(before, after)
    if args.setup_probe:
        # this process's (and its reaped children's) CPU time since it
        # started, calibrations aside
        cpu = cpu_time() - before - after
        print(f"ready {cpu * setup_scale!r}", flush=True)
        return 0
    setup_spans = tracer.snapshot()
    setup_samples = [] if args.trace else _setup_probe_samples(args)

    probe = ExplorationProbe(wl.meter.tick)
    probe.install()
    boundaries = CORE_BOUNDARIES + LATE_BOUNDARIES
    plain, traced = [], []
    start = time.perf_counter()
    while True:
        # trace mode alternates untraced and traced rounds; the untraced
        # ones give the overhead base and the counts to compare against
        begin = time.perf_counter()
        plain.append(_round(wl, probe))
        if args.trace:
            traced.append(_round(wl, probe, tracer, boundaries))
        now = time.perf_counter()
        if now - start + (now - begin) > args.seconds:
            break
    probe.uninstall()

    rounds = plain + traced
    failures = [(i, label, msg) for i, r in enumerate(rounds)
                for label, msg in r.failures]
    failed_labels = set().union(*(r.failed_labels for r in rounds))
    counts = rounds[0].counts
    determinism = [f"round {i}: counts differ from round 0"
                   for i, r in enumerate(rounds[1:], 1)
                   if r.counts != counts]
    provenance = _provenance(args.seed)
    name = args.workload + ("-smoke" if args.smoke else "")
    determinism += _check_state_file(name, counts, provenance)

    attempted = sum(len(r.requests) for r in rounds)
    failed = min(attempted, sum(len(r.failed_labels) for r in rounds)
                 + len(determinism))
    spec = _spec()
    if args.trace:
        values = _per_layer(traced, statistics.median(
            r.wall_s for r in plain), setup_spans, setup_scale)
        listed = spec["per_layer"]
    else:
        values = _end_to_end(wl, plain, [n for n, _ in setup_samples])
        listed = spec["end_to_end"]
    metrics = {m["name"]: {"value": values[m["name"]], "unit": m["unit"]}
               for m in listed}
    aliases = {} if args.trace else _aliases(wl, plain, values)
    correct = failed == 0

    print(f"workload {wl.name}: {len(plain)} untraced"
          + (f" + {len(traced)} traced" if args.trace else "")
          + f" round(s), {len(rounds[0].requests)} {wl.noun}s each, "
            f"engine {provenance['engine']}"
          + ("" if provenance["native_compiled"] else " (uncompiled)"))
    print(f"  provenance: seed {args.seed}, commit "
          f"{provenance['git_commit'] or 'unknown'}, sources "
          f"{provenance['source_sha256'][:16]}, nproc {provenance['nproc']}, "
          f"python {provenance['python']['version']} "
          f"{provenance['python']['compiler']}")
    for m in listed:
        print(f"  {m['name']:<40} {values[m['name']]:>16.6g} {m['unit']}")
    for alias, entry in aliases.items():
        extra = "".join(f" {k}={v}" for k, v in entry.items() if k != "value")
        print(f"  {alias:<40} {entry['value']:>16.6g} ms  ({extra.strip()})")
    print(f"  {'error_rate':<40} {failed / attempted:>16.6g} "
          f"({failed} of {attempted})")
    raw = statistics.median(r.raw_wall_s for r in plain)
    off_cpu = statistics.median(r.off_cpu_s for r in plain)
    print(f"  {'raw wall seconds (unbounded)':<40} {raw:>16.6g} s  "
          f"(steal and contention included; off-CPU waiting "
          f"{off_cpu:.6g} s, counted in wall_s)")
    if args.trace:
        for span_name, note in sorted(tracer.notes.items()):
            print(f"  boundary {span_name}: {note}")
    for i, label, msg in failures[:20]:
        print(f"FAILED round {i} {label}: {msg}")
    for msg in determinism:
        print(f"FAILED determinism: {msg}")

    if args.out:
        doc = {
            "kind": "perfbench-result", "version": 1,
            "workload": wl.name, "seed": args.seed, "seconds": args.seconds,
            "trace": args.trace, "smoke": args.smoke,
            "provenance": provenance,
            "correct": correct, "attempted": attempted, "failed": failed,
            "error_rate": failed / attempted,
            "failures": [f"{label}: {msg}" for _, label, msg in failures]
                        + determinism,
            "metrics": metrics, "aliases": aliases,
            "rounds": {"untraced_wall_s": [r.wall_s for r in plain],
                       "untraced_raw_wall_s": [r.raw_wall_s for r in plain],
                       "untraced_off_cpu_s": [r.off_cpu_s for r in plain],
                       "traced_wall_s": [r.wall_s for r in traced],
                       "traced_raw_wall_s": [r.raw_wall_s for r in traced]},
            "setup_probe_s": [n for n, _ in setup_samples],
            "setup_probe_raw_s": [r for _, r in setup_samples],
            "counts": counts,
            "failed_requests": sorted(failed_labels),
            "rows": rounds[0].rows,
            "boundaries": tracer.notes if args.trace else {},
        }
        Path(args.out).write_text(json.dumps(doc, indent=1) + "\n")
    print(json.dumps({"correct": correct, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 0 if correct else 1


def run_all(args) -> int:
    """Every workload, each in its own process, one after the other."""
    from workloads import WORKLOADS

    total = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for name in WORKLOADS:
        cmd = [sys.executable, str(HERE / "run.py"), "--workload", name,
               "--seed", str(args.seed), "--seconds", str(args.seconds),
               "--trace", str(args.trace)] + (["--smoke"] if args.smoke
                                              else [])
        done = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE,
                              text=True)
        lines = done.stdout.splitlines()
        print("\n".join(lines[:-1]), flush=True)
        try:
            result = json.loads(lines[-1])
        except (IndexError, ValueError):
            result = {"correct": False, "attempted": 1, "failed": 1,
                      "metrics": {}}
        total["correct"] &= done.returncode == 0 and result["correct"]
        total["attempted"] += result["attempted"]
        total["failed"] += result["failed"]
        for metric, entry in result["metrics"].items():
            total["metrics"][f"{name}.{metric}"] = entry
    print(json.dumps(total))
    return 0 if total["correct"] else 1


def main(argv=None) -> int:
    args = _parse(argv)
    if not (ROOT / "src" / "repro" / "__init__.py").is_file():
        print(f"perfbench: no source tree at {ROOT / 'src' / 'repro'}; "
              f"run from a full checkout", file=sys.stderr)
        return 2
    sys.path[:0] = [str(ROOT / "src"), str(ROOT)]
    if args.workload == "all":
        return run_all(args)
    from workloads import WORKLOADS

    if args.workload not in WORKLOADS:
        print(f"perfbench: unknown workload {args.workload!r}; choose from "
              f"{', '.join(WORKLOADS)} or all", file=sys.stderr)
        return 2
    return run_workload(args)


if __name__ == "__main__":
    sys.exit(main())
