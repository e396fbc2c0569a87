"""Compare two result documents written by ``run.py --out``.

    python3 perfbench/compare.py BASE.json NEW.json

Prints every metric the two share with the ratio NEW/BASE, marked
``worse`` where it moved the wrong way by more than the bound
BENCHMARK.json fixes.  When the two ran on different clock engines, or
one had the compiled C kernel and the other did not, their times are
not comparable: the comparison says so in WARNING lines before any
ratio.
"""

from __future__ import annotations

import json
import statistics
import sys
from pathlib import Path
from typing import Any, Dict, List

ROOT = Path(__file__).resolve().parent.parent


def provenance_warnings(base: Dict[str, Any],
                        new: Dict[str, Any]) -> List[str]:
    """Differences that make the two results' times incomparable."""
    out = []
    for doc_key in ("workload", "smoke", "trace"):
        if base.get(doc_key) != new.get(doc_key):
            out.append(f"{doc_key} differs: {base.get(doc_key)!r} vs "
                       f"{new.get(doc_key)!r}")
    pb, pn = base["provenance"], new["provenance"]
    if pb["engine"] != pn["engine"]:
        out.append(f"clock engine differs: {pb['engine']} vs {pn['engine']}")
    if pb["native_compiled"] != pn["native_compiled"]:
        out.append(f"compiled C kernel differs: {pb['native_compiled']} vs "
                   f"{pn['native_compiled']}")
    eb, en = pb["engine_provenance"], pn["engine_provenance"]
    for key in ("compiled", "compiler"):
        if eb.get(key) != en.get(key):
            out.append(f"engine {key} differs: {eb.get(key)!r} vs "
                       f"{en.get(key)!r}")
    for key in ("python", "nproc"):
        if pb.get(key) != pn.get(key):
            out.append(f"{key} differs: {pb.get(key)!r} vs {pn.get(key)!r}")
    return out


def compare(base: Dict[str, Any], new: Dict[str, Any]) -> List[str]:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    meta = {m["name"]: m for m in spec["end_to_end"] + spec["per_layer"]}
    lines = [f"WARNING: {w}; ratios below compare unlike runs"
             for w in provenance_warnings(base, new)]
    for name, entry in new["metrics"].items():
        if name not in base["metrics"]:
            continue
        old, cur = base["metrics"][name]["value"], entry["value"]
        ratio = cur / old if old else float("nan")
        verdict = ""
        m = meta.get(name, {})
        if "bound" in m and old:
            worse = ratio - 1 if m["better"] == "lower" else 1 - ratio
            verdict = "worse" if worse > m["bound"] else "within bound"
        lines.append(f"{name:<40} {old:>14.6g} {cur:>14.6g} "
                     f"{ratio:>8.3f}x {entry['unit']:<6} {verdict}")
    # raw wall time carries steal and neighbour contention, so it gets no
    # verdict; it is shown so that time off the CPU cannot hide
    for key, label in (("untraced_raw_wall_s", "raw wall seconds"),
                       ("untraced_off_cpu_s", "off-CPU seconds")):
        old, cur = (statistics.median(doc["rounds"][key])
                    for doc in (base, new))
        ratio = f"{cur / old:>8.3f}x" if old else f"{'':>9}"
        lines.append(f"{label:<40} {old:>14.6g} {cur:>14.6g} "
                     f"{ratio} s      (no bound)")
    return lines


def main(argv: List[str]) -> int:
    if len(argv) != 2:
        print(__doc__.strip().splitlines()[2].strip(), file=sys.stderr)
        return 2
    try:
        base, new = (json.loads(Path(p).read_text()) for p in argv)
    except (OSError, ValueError) as exc:
        print(f"compare: cannot read result: {exc}", file=sys.stderr)
        return 2
    print("\n".join(compare(base, new)))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
