"""Lazy DPOR prototype — the paper's Section 4 future work.

The paper observes that the lazy HBR cannot simply replace the regular
HBR inside DPOR, because not every linearization of a lazy HBR is
feasible.  What *can* be done soundly today is to combine the two
mechanisms:

* DPOR's race detection and backtracking run unchanged on the regular
  HBR (so the set of branches considered is the sound F–G set);
* additionally, after every executed event the **lazy** prefix
  fingerprint is checked against a global cache; on a hit, the current
  branch's continuation provably reaches only states reachable from the
  earlier, equivalent prefix.

Caveat (documented, and measured in the ablation benchmark): pruning a
branch also skips the race analysis its suffix would have performed, so
backtrack points that only that suffix would have added to *this*
branch's ancestors can be lost.  Equivalent prefixes are extended
elsewhere — but under a different prefix whose ancestor nodes are
different stack entries.

**This explorer is approximate.**  Hypothesis-driven random-program
testing found a concrete counterexample (pinned as an ``@example`` in
``tests/test_random_program_soundness.py``): a 2-thread, 7-event
program where exactly the backtrack-loss mechanism above drops one of
two terminal states.  On every benchmark of the shipped suite the
explorer still finds the full DFS state set (asserted by the suite
soundness tests), and it only ever *under*-approximates — every state
it reports is a real reachable state, and its statistics stay within
the paper's inequality — but exact coverage on arbitrary programs is
not guaranteed.  Making the combination precise remains future work,
as in the paper's Section 4.

The cache is probed after every step DPOR's loop executes, but not
after the step a backtrack chooses: ``DPORExplorer._replay_stack``
replays the whole stack prefix, that step included, without calling
``_prune_after_step``.  (HBR caching does probe its equivalent, see
:mod:`repro.explore.caching`.)  A probe there was measured.  On the
96 suite programs at 2,000 schedules and on the nine ``scaled-dpor``
instances of the repository benchmark run to exhaustion, it changed
no schedule.  On 1,500 programs from the soundness generator it cut 11
of 7,442 schedules, on 7 programs, and found the same states.  Each
schedule it removes is one whose race analysis is skipped, which is
the mechanism behind the approximation above, so the step stays
unprobed until the combination is made exact.
"""

from __future__ import annotations

from typing import Any, Dict

from ..core.cache import FingerprintCache
from .dpor import DPORExplorer


class LazyDPORExplorer(DPORExplorer):
    """DPOR + lazy-HBR prefix pruning (prototype)."""

    name = "lazy-dpor"

    def __init__(self, program, limits=None,
                 sleep_sets: bool = True) -> None:
        super().__init__(program, limits, sleep_sets=sleep_sets)
        self.stats.explorer_name = self.name = "lazy-dpor"
        self.cache = FingerprintCache()

    def _aux_state_to_dict(self) -> Dict[str, Any]:
        return self.cache.to_dict()

    def _aux_state_from_dict(self, payload: Dict[str, Any]) -> None:
        if payload:
            self.cache = FingerprintCache.from_dict(payload)

    def _prune_after_step(self, ex) -> bool:
        # lazy-HBR pruning: skip continuations of prefixes whose lazy
        # HBR was already reached by an earlier feasible prefix
        if self.cache.insert(ex.engine.lazy_fingerprint()):
            return False
        self.stats.num_events += ex.num_events
        return True

    def run(self):
        stats = super().run()
        stats.extra["cache_size"] = len(self.cache)
        stats.extra["cache_hits"] = self.cache.hits
        return stats
