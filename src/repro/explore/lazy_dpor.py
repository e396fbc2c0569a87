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
"""

from __future__ import annotations

from typing import Any, Dict, Optional

from ..core.cache import FingerprintCache
from .dpor import DPORExplorer


class LazyDPORExplorer(DPORExplorer):
    """DPOR + lazy-HBR prefix pruning (prototype)."""

    name = "lazy-dpor"

    def __init__(
        self,
        program,
        limits=None,
        sleep_sets: bool = True,
        cache_capacity: Optional[int] = None,
    ) -> None:
        super().__init__(program, limits, sleep_sets=sleep_sets)
        self.stats.explorer_name = self.name = "lazy-dpor"
        self.cache = FingerprintCache(cache_capacity)

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
