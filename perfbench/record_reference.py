"""Record the terminal-state sets that scaled-dpor checks DPOR against.

Most sets come from exhaustive lazy-HBR caching, an algorithm other
than the DPOR under test, so agreement is an independent check; the
slowest, ``semaphore_pool(4,2)``, takes 2.2 million schedules.

Two instances are out of its reach: lazy-HBR caching needs 0.29 and
0.64 million schedules for their one-item-per-thread versions, and had
not exhausted ``work_queue_private(4,2)`` after 25 minutes.  Every
thread of them writes only its own slot, so the final state cannot
depend on the schedule, and the reference is the state of one
first-enabled execution.  That is a sanity check, not an
independent one: it catches DPOR reporting an extra state, never a
missed one.

Re-record only when the suite family constructors change.  Run from the
repository root::

    python3 perfbench/record_reference.py
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

from workloads import REFERENCE_FILE, ScaledDpor  # noqa: E402

from repro.explore.base import ExplorationLimits  # noqa: E402
from repro.explore.controller import run_single  # noqa: E402
from repro.runtime.schedule import execute  # noqa: E402

#: one terminal state by construction: per-thread slots only
ONE_STATE = frozenset({
    "work_queue_private(4,2)",  # own queue head and sum, under one lock
    "readonly_coarse(4,2)",     # reads shared data, writes its own slot
})


def main() -> int:
    instances = {}
    for pool in (ScaledDpor.POOL, ScaledDpor.SMOKE_POOL):
        for label, program in ScaledDpor.build_pool(pool).items():
            if label in ONE_STATE:
                algorithm, schedules = "single-run", 1
                states = {execute(program).state_hash}
            else:
                algorithm = "lazy-hbr-caching"
                stats = run_single(program, algorithm,
                                   ExplorationLimits(max_schedules=10**7))
                if not stats.exhausted:
                    print(f"{label}: {algorithm} did not exhaust",
                          file=sys.stderr)
                    return 1
                states, schedules = stats.state_hashes, stats.num_schedules
            instances[label] = {"algorithm": algorithm,
                                "schedules": schedules,
                                "states": sorted(states)}
            print(f"{label}: {len(states)} state(s) by {algorithm} in "
                  f"{schedules} schedule(s)", flush=True)
    REFERENCE_FILE.parent.mkdir(exist_ok=True)
    REFERENCE_FILE.write_text(json.dumps({"instances": instances},
                                         indent=1) + "\n")
    print(f"wrote {REFERENCE_FILE.relative_to(ROOT)}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
