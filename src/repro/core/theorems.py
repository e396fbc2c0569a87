"""Empirical checkers for the paper's two theorems.

These functions *validate* (on concrete programs) the guarantees the
algorithms rely on:

* **Theorem 2.1** — every linearization of a schedule's (regular) HBR
  is itself feasible and reaches the same final state.
* **Theorem 2.2** — any two *feasible* schedules with equal lazy HBRs
  reach the same final state (not every linearization of a lazy HBR is
  feasible, so feasibility is checked, not assumed).

They are used by the hypothesis-driven property tests and are part of
the public API so users can sanity-check their own programs.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Tuple

from ..runtime.program import Program
from ..runtime.schedule import execute_exact
from ..runtime.trace import TraceResult
from .relations import PartialOrder


@dataclass
class TheoremReport:
    """Outcome of one empirical theorem check."""

    holds: bool
    checked: int = 0
    detail: str = ""
    counterexample: Optional[Tuple[List[int], List[int]]] = None


def check_theorem_2_1(
    program: Program,
    schedule: Sequence[int],
    max_linearizations: int = 500,
) -> TheoremReport:
    """All linearizations of the schedule's HBR are feasible and reach
    the same state (checking at most ``max_linearizations`` of them)."""
    base = execute_exact(program, list(schedule))
    if base is None:
        raise ValueError("the given schedule is not feasible")
    po = PartialOrder(base.events, lazy=False)
    checked = 0
    for lin in po.linearizations(limit=max_linearizations):
        alt_schedule = po.thread_schedule(lin)
        alt = execute_exact(program, alt_schedule)
        if alt is None:
            return TheoremReport(
                False, checked,
                "linearization of the HBR was infeasible",
                (list(base.schedule), alt_schedule),
            )
        if alt.state_hash != base.state_hash:
            return TheoremReport(
                False, checked,
                "linearization reached a different state",
                (list(base.schedule), alt_schedule),
            )
        if alt.hbr_fp != base.hbr_fp:
            return TheoremReport(
                False, checked,
                "linearization produced a different HBR fingerprint",
                (list(base.schedule), alt_schedule),
            )
        checked += 1
    return TheoremReport(True, checked)


def check_theorem_2_2(
    program: Program,
    schedules: Sequence[Sequence[int]],
) -> TheoremReport:
    """Among the given feasible schedules, any two with equal lazy HBR
    fingerprints reach equal states (and equal regular HBR implies equal
    lazy HBR — the containment that makes #lazy <= #HBRs)."""
    by_lazy: Dict[int, TraceResult] = {}
    by_hbr: Dict[int, TraceResult] = {}
    checked = 0
    for schedule in schedules:
        r = execute_exact(program, list(schedule))
        if r is None:
            continue
        checked += 1
        prev = by_lazy.get(r.lazy_fp)
        if prev is not None and prev.state_hash != r.state_hash:
            return TheoremReport(
                False, checked,
                "equal lazy HBR but different final states",
                (list(prev.schedule), list(r.schedule)),
            )
        by_lazy.setdefault(r.lazy_fp, r)
        prev_h = by_hbr.get(r.hbr_fp)
        if prev_h is not None and prev_h.lazy_fp != r.lazy_fp:
            return TheoremReport(
                False, checked,
                "equal regular HBR but different lazy HBRs "
                "(breaks #lazy <= #HBRs)",
                (list(prev_h.schedule), list(r.schedule)),
            )
        by_hbr.setdefault(r.hbr_fp, r)
    return TheoremReport(True, checked)


def check_inequality_chain(
    program: Program,
    schedules: Sequence[Sequence[int]],
) -> TheoremReport:
    """#states <= #lazy HBRs <= #HBRs <= #schedules over the given
    feasible schedules."""
    states, lazies, hbrs = set(), set(), set()
    n = 0
    for schedule in schedules:
        r = execute_exact(program, list(schedule))
        if r is None:
            continue
        n += 1
        states.add(r.state_hash)
        lazies.add(r.lazy_fp)
        hbrs.add(r.hbr_fp)
    ok = len(states) <= len(lazies) <= len(hbrs) <= n
    return TheoremReport(
        ok, n,
        f"states={len(states)} lazy={len(lazies)} hbrs={len(hbrs)} "
        f"schedules={n}",
    )
