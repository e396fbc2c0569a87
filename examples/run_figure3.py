#!/usr/bin/env python3
"""Regenerate the paper's Figure 3: terminal lazy HBRs explored by
regular HBR caching vs lazy HBR caching, over all 96 suite benchmarks
(the paper's evaluation had 79).

Usage:
    python examples/run_figure3.py [schedule_limit] [seconds_per_benchmark] [jobs]

Defaults: limit 2000, 10 s per benchmark (per explorer), 1 job.  The
harness runs its cells as a campaign: with ``jobs > 1`` the
per-benchmark cells are sharded across a process pool
(same rows bit-for-bit when only the schedule limit binds; a binding
wall-clock cap is load-dependent either way — see
``python -m repro campaign``).
"""

import sys

from repro.analysis import figure3_report, run_figure3


def main():
    limit = int(sys.argv[1]) if len(sys.argv) > 1 else 2_000
    seconds = float(sys.argv[2]) if len(sys.argv) > 2 else 10.0
    jobs = int(sys.argv[3]) if len(sys.argv) > 3 else 1
    rows = run_figure3(
        schedule_limit=limit,
        seconds_per_benchmark=seconds,
        progress=print,
        jobs=jobs,
    )
    print()
    print(figure3_report(rows, limit))


if __name__ == "__main__":
    main()
