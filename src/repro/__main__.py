"""Command-line interface: ``python -m repro <command>``.

Commands
--------
check TARGET              one-call front door: explore a benchmark id or
                          a ``module:function`` (shim frontend), report
                          the :class:`repro.check.CheckResult`
list                      list the 96 suite benchmarks
run ID [--schedule ...]   execute one benchmark once and show the result
explore ID [--strategy S] explore a benchmark and print the statistics
races ID                  systematic data-race hunt on a benchmark
figure2 / figure3         regenerate the paper's figures (``--jobs N``)
inequality                the Section 3 inequality table
campaign                  sharded explorer×benchmark×seed run-matrix
                          (``--jobs``, ``--seeds``, ``--smoke``,
                          ``--split-large N``, ``--resume CKPT``,
                          ``--out report.json``)
bench                     replay-loop micro-benchmarks; JSON reports
                          (``--smoke``, ``--out``, ``--baseline``)
shim-equivalence          shim-vs-DSL golden equivalence report
                          (``--out report.json`` for the CI artifact)
"""

from __future__ import annotations

import argparse
import sys

from .analysis import (
    figure2_report,
    figure3_report,
    inequality_report,
    run_figure2,
    run_figure3,
    run_inequality_table,
)
from .analysis.races import find_races, race_summary
from .explore import ExplorationLimits
from .explore.controller import STANDARD_EXPLORERS
from .runtime.schedule import execute
from .suite import REGISTRY, all_benchmarks


def _resolve_check_target(spec: str):
    """A ``check`` target: a suite benchmark id or ``module:function``."""
    if spec.isdigit():
        return _get(int(spec))
    if ":" not in spec:
        print(f"error: target must be a benchmark id or module:function, "
              f"got {spec!r}", file=sys.stderr)
        raise SystemExit(2)
    module_name, _, attr = spec.partition(":")
    import importlib
    try:
        module = importlib.import_module(module_name)
    except ImportError as exc:
        print(f"error: cannot import {module_name!r}: {exc}",
              file=sys.stderr)
        raise SystemExit(2)
    target = getattr(module, attr, None)
    if target is None:
        print(f"error: {module_name!r} has no attribute {attr!r}",
              file=sys.stderr)
        raise SystemExit(2)
    return target


def _cmd_check(args) -> int:
    import json

    from .check import check

    target = _resolve_check_target(args.target)
    try:
        result = check(
            target,
            explorer=args.explorer,
            max_schedules=args.limit,
            max_seconds=args.seconds,
            seeds=tuple(range(args.seeds)),
            minimize=not args.no_minimize,
            engine=args.engine,
        )
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    print(result.summary())
    if args.trace and result.trace:
        print()
        print("\n".join(result.trace))
    if args.json:
        with open(args.json, "w") as fh:
            json.dump(result.to_dict(), fh, indent=1, sort_keys=True)
        print(f"wrote {args.json}")
    if args.expect is not None:
        expected_bug = args.expect == "bug"
        if result.bug_found != expected_bug:
            print(f"UNEXPECTED: expected {args.expect}, got "
                  f"{'bug' if result.bug_found else 'clean'}",
                  file=sys.stderr)
            return 1
        return 0
    return 1 if result.bug_found else 0


def _cmd_shim_equivalence(args) -> int:
    import json

    from .explore import ExplorationLimits
    from .suite.shim_twins import equivalence_report

    limits = ExplorationLimits(max_schedules=args.limit,
                               max_seconds=args.seconds)
    report = equivalence_report(limits,
                                explorers=tuple(args.explorers.split(",")))
    for name in sorted(report["pairs"]):
        pair = report["pairs"][name]
        per_explorer = " ".join(
            f"{exp}={'ok' if e['equal'] else 'DIFF'}"
            for exp, e in sorted(pair["explorers"].items())
        )
        single = "ok" if pair["single_run_equal"] else "DIFF"
        print(f"{name:<22} single-run={single} {per_explorer}")
    print(f"all_equal={report['all_equal']}")
    if args.out:
        with open(args.out, "w") as fh:
            json.dump(report, fh, indent=1, sort_keys=True)
        print(f"wrote {args.out}")
    return 0 if report["all_equal"] else 1


def _cmd_list(_args) -> int:
    print(f"{'id':>3} {'name':<38} {'family':<18} {'small':<5} expect_error")
    for b in all_benchmarks():
        print(
            f"{b.bench_id:>3} {b.program.name:<38} {b.family:<18} "
            f"{'yes' if b.small else 'no':<5} {b.expect_error or '-'}"
        )
    return 0


def _get(bench_id: int):
    if bench_id not in REGISTRY:
        print(f"error: no benchmark {bench_id} (1..{max(REGISTRY)})",
              file=sys.stderr)
        raise SystemExit(2)
    return REGISTRY[bench_id]


def _cmd_run(args) -> int:
    bench = _get(args.id)
    schedule = None
    if args.schedule:
        schedule = [int(t) for t in args.schedule.split(",")]
    result = execute(bench.program, schedule=schedule)
    print(result.describe())
    if args.timeline:
        from .analysis.traceviz import names_of, render_timeline
        print()
        print(render_timeline(result, names_of(bench.program)))
        print()
    print("final state:")
    for name, value in result.final_state.items():
        print(f"  {name} = {value!r}")
    return 0 if result.ok else 1


def _cmd_explore(args) -> int:
    bench = _get(args.id)
    factory = STANDARD_EXPLORERS.get(args.strategy)
    if factory is None:
        print(f"error: unknown strategy {args.strategy!r}; one of "
              f"{sorted(STANDARD_EXPLORERS)}", file=sys.stderr)
        return 2
    limits = ExplorationLimits(max_schedules=args.limit,
                               max_seconds=args.seconds)
    stats = factory(bench.program, limits).run()
    stats.verify_inequality()
    print(stats.summary())
    for finding in stats.errors:
        print(f"  {finding.kind}: {finding.message}")
        print(f"    schedule: {','.join(map(str, finding.schedule))}")
    return 0


def _cmd_races(args) -> int:
    bench = _get(args.id)
    limits = ExplorationLimits(max_schedules=args.limit,
                               max_seconds=args.seconds)
    report = find_races(bench.program, limits)
    instance = bench.program.instantiate()
    names = {obj.oid: obj.name for obj in instance.registry.objects}
    print(race_summary(report, names))
    return 0 if report.race_free else 1


def _cmd_figure2(args) -> int:
    rows = run_figure2(schedule_limit=args.limit,
                       seconds_per_benchmark=args.seconds,
                       progress=print if args.verbose else None,
                       jobs=args.jobs)
    print(figure2_report(rows, args.limit))
    return 0


def _cmd_figure3(args) -> int:
    rows = run_figure3(schedule_limit=args.limit,
                       seconds_per_benchmark=args.seconds,
                       progress=print if args.verbose else None,
                       jobs=args.jobs)
    print(figure3_report(rows, args.limit))
    return 0


def _cmd_inequality(args) -> int:
    rows = run_inequality_table(schedule_limit=args.limit,
                                seconds_per_benchmark=args.seconds,
                                jobs=args.jobs)
    print(inequality_report(rows))
    return 0


#: smoke-campaign defaults: a fast, behaviour-spanning subset — racy +
#: locked counters, coarse lock over disjoint data, bounded buffer,
#: condvars, a deadlock (36), an assertion violation (47), a mutual-
#: exclusion protocol, an SC litmus test, and the channel/future
#: family (pipeline 80, seeded producer-consumer bug 84, future DAG
#: 86, close race 87), and the virtual-time family (seeded lease-expiry
#: bug 89, timed-retry storm bug 93).
SMOKE_IDS = (1, 2, 5, 10, 24, 28, 36, 47, 48, 75, 80, 84, 86, 87, 89, 93)
SMOKE_EXPLORERS = "dpor,lazy-hbr-caching,random"
SMOKE_LIMIT = 150


def _campaign_worker(args) -> int:
    """``campaign --worker``: serve leases from a coordinator."""
    import os

    from .campaign.chaos import ChaosPlan
    from .campaign.distributed import (
        DistributedWorker,
        FileWorkerChannel,
        TcpWorkerChannel,
        TransportError,
    )
    from .campaign.distributed.transport import parse_hostport

    worker_id = args.worker_id or f"worker-{os.getpid()}"
    if args.transport == "file":
        if not args.queue:
            print("error: --transport file needs --queue DIR",
                  file=sys.stderr)
            return 2
        channel = FileWorkerChannel(args.queue, worker_id)
    else:
        if not args.connect:
            print("error: --worker over tcp needs --connect HOST:PORT",
                  file=sys.stderr)
            return 2
        host, port = parse_hostport(args.connect)
        channel = TcpWorkerChannel(host, port, worker_id)
    chaos = None
    if args.chaos:
        try:
            chaos = ChaosPlan.load(args.chaos)
        except ValueError as exc:
            print(f"error: {exc}", file=sys.stderr)
            return 2
    worker = DistributedWorker(
        channel, chaos=chaos, hard_timeout=args.hard_timeout,
        progress=print if args.verbose else None,
    )
    try:
        stats = worker.run()
    except TransportError as exc:
        print(f"worker {worker_id}: {exc}", file=sys.stderr)
        return 1
    finally:
        channel.close()
    print(f"worker {worker_id}: tasks={stats['tasks']} "
          f"completed={stats['completed']} "
          f"abandoned={stats['abandoned']} donated={stats['donated']}")
    return 0


def _campaign_coordinate(args, cells, limits, store):
    """``campaign --coordinator``: own the queue, workers explore."""
    from .campaign.distributed import (
        Coordinator,
        FileCoordinatorServer,
        TcpCoordinatorServer,
    )
    from .campaign.distributed.transport import parse_hostport

    if args.transport == "file":
        if not args.queue:
            print("error: --transport file needs --queue DIR",
                  file=sys.stderr)
            return None
        server = FileCoordinatorServer(args.queue)
        where = args.queue
    else:
        host, port = parse_hostport(args.bind or "127.0.0.1:0")
        server = TcpCoordinatorServer(host, port)
        where = "%s:%d" % server.address
    state_path = args.state or (f"{args.resume}.coordinator.json"
                                if args.resume else None)
    coordinator = Coordinator(
        cells, limits, server=server, store=store,
        state_path=state_path,
        lease_timeout=args.lease_timeout,
        max_cell_retries=args.max_cell_retries,
        steal=not args.no_steal,
        progress=print if args.verbose else None,
    )
    print(f"coordinator: {len(cells)} cell(s) on {args.transport} "
          f"transport at {where}"
          + (f", state in {state_path}" if state_path else ""))
    try:
        return coordinator.run()
    finally:
        server.close()


def _cmd_campaign(args) -> int:
    from .analysis.runner import (
        figure2_rows_from_cells,
        figure3_rows_from_cells,
    )
    from .campaign import (
        ResultStore,
        build_cells,
        campaign_report,
        comparison_rows,
        run_campaign,
    )
    from .explore.controller import matrix_report
    from .ioutil import atomic_write_json

    if args.worker and args.coordinator:
        print("error: --coordinator and --worker are mutually "
              "exclusive", file=sys.stderr)
        return 2
    if args.engine:
        # campaign cells run in pool/worker subprocesses; the
        # environment variable is the one channel every spawn mode
        # (fork, spawn, distributed workers) inherits
        import os

        from .core.engines import ENGINE_ENV, resolve_engine
        try:
            resolve_engine(args.engine)
        except ValueError as exc:
            print(f"error: {exc}", file=sys.stderr)
            return 2
        os.environ[ENGINE_ENV] = args.engine
    if args.worker:
        # workers take their configuration (limits, verify, budgets)
        # from the coordinator's hello reply, not from the CLI
        return _campaign_worker(args)

    explorers_arg = args.explorers
    limit = args.limit
    try:
        ids = ([int(t) for t in args.ids.split(",")] if args.ids
               else None)
    except ValueError:
        print(f"error: --ids must be comma-separated integers, got "
              f"{args.ids!r}", file=sys.stderr)
        return 2
    if args.smoke:
        explorers_arg = explorers_arg or SMOKE_EXPLORERS
        limit = limit if limit is not None else SMOKE_LIMIT
        ids = ids if ids is not None else list(SMOKE_IDS)
    else:
        explorers_arg = explorers_arg or "dpor,hbr-caching,lazy-hbr-caching"
        limit = limit if limit is not None else 2_000
        ids = ids if ids is not None else sorted(REGISTRY)
    if args.jobs < 1:
        print(f"error: --jobs must be >= 1, got {args.jobs}",
              file=sys.stderr)
        return 2
    if args.split_large == 1 or args.split_large < 0:
        print(f"error: --split-large must be 0 (off) or >= 2, got "
              f"{args.split_large}", file=sys.stderr)
        return 2
    for i in ids:
        _get(i)  # validate early, consistent with the other commands
    explorers = explorers_arg.split(",")

    try:
        cells = build_cells(ids, explorers, seeds=args.seeds)
    except (KeyError, ValueError) as exc:
        message = exc.args[0] if exc.args else str(exc)
        print(f"error: {message}", file=sys.stderr)
        return 2
    limits = ExplorationLimits(max_schedules=limit,
                               max_seconds=args.seconds)
    store = None
    if args.resume:
        store = ResultStore(args.resume, limits)
        recovered = store.load()
        if recovered:
            print(f"resuming: {recovered} cell(s) checkpointed in "
                  f"{args.resume}")
        elif store.discarded_mismatch:
            print(f"ignoring checkpoint {args.resume}: written under "
                  f"different limits")
    if args.coordinator:
        campaign = _campaign_coordinate(args, cells, limits, store)
        if campaign is None:
            return 2
    else:
        campaign = run_campaign(
            cells, limits, jobs=args.jobs, store=store,
            progress=print if args.verbose else None,
            split_large=args.split_large,
        )

    print(matrix_report(comparison_rows(campaign.results)))
    print()
    extra_counts = ""
    if campaign.num_resumed:
        extra_counts += f" resumed={campaign.num_resumed}"
    if campaign.num_split:
        extra_counts += (f" split={campaign.num_split}"
                         f"x{args.split_large}")
    print(
        f"cells={len(campaign.results)} executed={campaign.num_executed} "
        f"cached={campaign.num_cached} failed={len(campaign.failures)}"
        f"{extra_counts} "
        f"jobs={campaign.jobs} elapsed={campaign.elapsed:.1f}s"
    )

    if args.out:
        report = campaign_report(
            campaign, limits,
            meta={
                "bench_ids": ids,
                "explorers": explorers,
                "seeds": args.seeds,
                "jobs": args.jobs,
                "smoke": bool(args.smoke),
                "distributed": bool(args.coordinator),
            },
            figure2=figure2_rows_from_cells(campaign.results),
            figure3=figure3_rows_from_cells(campaign.results),
        )
        atomic_write_json(args.out, report.to_dict())
        print(f"wrote {args.out}")

    bad = campaign.unexpected if args.smoke else campaign.failures
    for r in bad:
        kind = ("failed" if not r.ok else "unexpected findings")
        detail = (r.error or "").splitlines()[0] if not r.ok else ", ".join(
            f"{e.kind}: {e.message}" for e in r.stats.errors
        )
        print(f"UNEXPECTED [{kind}] {r.cell.key}: {detail}",
              file=sys.stderr)
    return 1 if bad else 0


def _cmd_bench(args) -> int:
    from .perf.bench import main as bench_main
    return bench_main(args)


def _cmd_matrix(args) -> int:
    import json

    from .explore.controller import matrix_report, run_matrix

    ids = ([int(t) for t in args.ids.split(",")] if args.ids
           else sorted(REGISTRY))
    programs = [_get(i).program for i in ids]
    strategies = args.strategies.split(",")
    limits = ExplorationLimits(max_schedules=args.limit,
                               max_seconds=args.seconds)
    rows = run_matrix(programs, strategies, limits,
                      progress=print if args.verbose else None)
    print(matrix_report(rows))
    if args.json:
        payload = [
            {name: stats.to_dict() for name, stats in row.by_explorer.items()}
            for row in rows
        ]
        with open(args.json, "w") as fh:
            json.dump(payload, fh, indent=2)
        print(f"\nwrote {args.json}")
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro",
        description="Lazy happens-before SCT toolkit (PPoPP 2015 repro)",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_check = sub.add_parser(
        "check",
        help="explore a target and report bug/no-bug",
        description="The one-call front door: explore a suite benchmark "
                    "(by id) or any importable function authored against "
                    "repro.shim (as module:function), minimize any "
                    "finding, and print the CheckResult summary.",
    )
    p_check.add_argument("target",
                         help="benchmark id, or module:function (e.g. "
                              "examples.real_code_demo:main)")
    p_check.add_argument("--explorer", default="dpor")
    p_check.add_argument("--limit", type=int, default=2_000,
                         help="schedule limit (default 2000)")
    p_check.add_argument("--seconds", type=float, default=None,
                         help="wall-clock limit")
    p_check.add_argument("--seeds", type=int, default=1,
                         help="seeds for randomized explorers")
    p_check.add_argument("--expect", choices=("bug", "clean"),
                         help="exit 0 iff the outcome matches (else the "
                              "exit code is 1 when a bug is found)")
    p_check.add_argument("--engine",
                         choices=("ref", "native"),
                         default=None,
                         help="clock-engine backend (default: auto; "
                              "see repro.core.engines)")
    p_check.add_argument("--no-minimize", action="store_true",
                         dest="no_minimize",
                         help="skip schedule minimization")
    p_check.add_argument("--trace", action="store_true",
                         help="print the reproduction timeline")
    p_check.add_argument("--json", metavar="PATH",
                         help="write the CheckResult as JSON here")

    sub.add_parser("list", help="list the suite benchmarks")

    p_run = sub.add_parser("run", help="execute one benchmark once")
    p_run.add_argument("id", type=int)
    p_run.add_argument("--schedule", help="comma-separated thread choices")
    p_run.add_argument("--timeline", action="store_true",
                       help="render the per-thread event timeline")

    p_exp = sub.add_parser("explore", help="explore a benchmark")
    p_exp.add_argument("id", type=int)
    p_exp.add_argument("--strategy", default="dpor")
    p_exp.add_argument("--limit", type=int, default=10_000)
    p_exp.add_argument("--seconds", type=float, default=None)

    p_races = sub.add_parser("races", help="systematic data-race hunt")
    p_races.add_argument("id", type=int)
    p_races.add_argument("--limit", type=int, default=10_000)
    p_races.add_argument("--seconds", type=float, default=None)

    for name in ("figure2", "figure3", "inequality"):
        p = sub.add_parser(name, help=f"regenerate {name}")
        p.add_argument("--limit", type=int, default=2_000)
        p.add_argument("--seconds", type=float, default=5.0)
        p.add_argument("--jobs", type=int, default=1,
                       help="worker processes (1 = serial)")
        p.add_argument("--verbose", action="store_true")

    p_camp = sub.add_parser(
        "campaign",
        help="sharded explorer×benchmark×seed run-matrix",
        description="Run a campaign: the (explorer, benchmark, seed) "
                    "matrix sharded across a process pool, with "
                    "checkpoint/resume and a JSON report.",
    )
    p_camp.add_argument("--ids", help="comma-separated bench ids "
                                      "(default: all 79)")
    p_camp.add_argument("--explorers",
                        help="comma-separated strategy names (default: "
                             "dpor,hbr-caching,lazy-hbr-caching)")
    p_camp.add_argument("--jobs", type=int, default=1,
                        help="worker processes (1 = serial)")
    p_camp.add_argument("--seeds", type=int, default=1,
                        help="seeds per randomized explorer "
                             "(random/pct); deterministic strategies "
                             "always run once")
    p_camp.add_argument("--limit", type=int, default=None,
                        help="schedule limit per cell (default: 2000; "
                             "150 under --smoke)")
    p_camp.add_argument("--seconds", type=float, default=None,
                        help="per-cell wall-clock timeout")
    p_camp.add_argument("--engine",
                        choices=("ref", "native"),
                        default=None,
                        help="clock-engine backend for every cell "
                             "(exported as REPRO_ENGINE so pool and "
                             "distributed workers inherit it; default: "
                             "auto)")
    p_camp.add_argument("--smoke", action="store_true",
                        help="fast CI subset; also fails on unexpected "
                             "explorer findings")
    p_camp.add_argument("--split-large", type=int, default=0,
                        dest="split_large", metavar="N",
                        help="shard each splittable cell (DFS-family "
                             "strategies) into N disjoint frontier "
                             "shards run as separate pool tasks and "
                             "union-merged; 0 = off")
    p_camp.add_argument("--resume", metavar="CKPT",
                        help="JSON checkpoint file: completed cells "
                             "(and shards) are skipped, half-explored "
                             "cells continue from their checkpointed "
                             "frontier, new results are appended after "
                             "every cell")
    p_camp.add_argument("--out", metavar="REPORT",
                        help="write the full JSON campaign report here")
    p_camp.add_argument("--verbose", action="store_true")
    # -- distributed mode (see DESIGN.md §10) --
    p_camp.add_argument("--coordinator", action="store_true",
                        help="serve this campaign's cells to remote "
                             "workers instead of running them locally")
    p_camp.add_argument("--worker", action="store_true",
                        help="lease and execute cells from a "
                             "coordinator (ignores the matrix flags; "
                             "limits come from the coordinator)")
    p_camp.add_argument("--transport", choices=("tcp", "file"),
                        default="tcp",
                        help="coordinator/worker transport: tcp "
                             "sockets, or a shared-directory file "
                             "queue (--queue) for no-network "
                             "environments")
    p_camp.add_argument("--bind", metavar="HOST:PORT",
                        help="coordinator tcp listen address "
                             "(default 127.0.0.1:0 — the chosen port "
                             "is printed)")
    p_camp.add_argument("--connect", metavar="HOST:PORT",
                        help="worker: the coordinator's tcp address")
    p_camp.add_argument("--queue", metavar="DIR",
                        help="file transport: shared queue directory")
    p_camp.add_argument("--lease-timeout", type=float, default=15.0,
                        dest="lease_timeout", metavar="SECONDS",
                        help="missed-heartbeat window after which a "
                             "worker's task is reassigned from its "
                             "last checkpoint (default 15)")
    p_camp.add_argument("--max-cell-retries", type=int, default=3,
                        dest="max_cell_retries", metavar="N",
                        help="failed/expired attempts per cell before "
                             "it is quarantined as poisonous "
                             "(default 3)")
    p_camp.add_argument("--worker-id", dest="worker_id",
                        help="stable worker name (default: "
                             "worker-<pid>)")
    p_camp.add_argument("--chaos", metavar="PLAN",
                        help="worker: JSON fault-injection plan "
                             "(see repro.campaign.chaos)")
    p_camp.add_argument("--hard-timeout", type=float, default=None,
                        dest="hard_timeout", metavar="SECONDS",
                        help="worker: hard per-cell wall-clock "
                             "watchdog; an overrunning cell is "
                             "reported as timed_out instead of "
                             "wedging the worker")
    p_camp.add_argument("--no-steal", action="store_true",
                        dest="no_steal",
                        help="coordinator: disable work stealing from "
                             "long-running splittable cells")
    p_camp.add_argument("--state", metavar="PATH",
                        help="coordinator: crash-safe queue/lease "
                             "state file (default: derived from "
                             "--resume; no file means no coordinator "
                             "crash-resume)")

    p_bench = sub.add_parser(
        "bench",
        help="replay-loop micro-benchmarks (JSON reports)",
        description="Measure schedules/sec and events/sec of the "
                    "explorer micro-benchmarks; optionally write a "
                    "BENCH_<name>.json report and compare against a "
                    "committed baseline.",
    )
    p_bench.add_argument("--cases",
                         help="comma-separated case names (default: all)")
    p_bench.add_argument("--engine", choices=("ref", "native"),
                         default=None,
                         help="clock-engine backend (default: auto)")
    p_bench.add_argument("--smoke", action="store_true",
                         help="fast mode for CI (shorter measurements)")
    p_bench.add_argument("--repeat", type=int, default=3,
                         help="measurement rounds per case; best wins")
    p_bench.add_argument("--min-time", type=float, default=0.25,
                         dest="min_time",
                         help="seconds of work to accumulate per round")
    p_bench.add_argument("--out", metavar="REPORT",
                         help="write the JSON report here "
                              "(e.g. BENCH_latest.json)")
    p_bench.add_argument("--baseline", metavar="REPORT",
                         help="compare against this report; exit 1 on "
                              "regression, 2 when a case ran on another "
                              "engine than its baseline row")
    p_bench.add_argument("--max-regression", type=float, default=0.30,
                         dest="max_regression",
                         help="allowed fractional slowdown vs baseline "
                              "(default 0.30)")
    p_bench.add_argument("--quiet", action="store_true")

    p_equiv = sub.add_parser(
        "shim-equivalence",
        help="shim-vs-DSL golden equivalence report",
        description="Run every shim/DSL twin pair through the named "
                    "explorers and report whether fingerprints, "
                    "schedules and findings are byte-identical; exits 1 "
                    "on any divergence.",
    )
    p_equiv.add_argument("--explorers", default="dfs,dpor,pct",
                         help="comma-separated explorer names")
    p_equiv.add_argument("--limit", type=int, default=3_000,
                         help="schedule limit per run")
    p_equiv.add_argument("--seconds", type=float, default=None)
    p_equiv.add_argument("--out", metavar="REPORT",
                         help="write the JSON equivalence report here")

    p_matrix = sub.add_parser(
        "matrix", help="compare explorers over chosen benchmarks"
    )
    p_matrix.add_argument("--ids", help="comma-separated bench ids "
                                        "(default: all 79)")
    p_matrix.add_argument("--strategies", default="dpor,lazy-hbr-caching")
    p_matrix.add_argument("--limit", type=int, default=2_000)
    p_matrix.add_argument("--seconds", type=float, default=5.0)
    p_matrix.add_argument("--json", help="also write results as JSON")
    p_matrix.add_argument("--verbose", action="store_true")

    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    handler = {
        "check": _cmd_check,
        "shim-equivalence": _cmd_shim_equivalence,
        "list": _cmd_list,
        "run": _cmd_run,
        "explore": _cmd_explore,
        "races": _cmd_races,
        "figure2": _cmd_figure2,
        "figure3": _cmd_figure3,
        "inequality": _cmd_inequality,
        "matrix": _cmd_matrix,
        "campaign": _cmd_campaign,
        "bench": _cmd_bench,
    }[args.command]
    try:
        return handler(args)
    except BrokenPipeError:
        # output piped into e.g. `head`; not an error
        import os
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return 0


if __name__ == "__main__":
    raise SystemExit(main())
