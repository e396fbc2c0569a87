"""(Lazy) HBR caching — Musuvathi & Qadeer, MSR-TR-2007-12, and the
lazy variant contributed by the paper.

Exploration is a depth-first enumeration of schedules, but after every
executed event the fingerprint of the prefix's happens-before relation
is looked up in a global cache:

* **regular HBR caching**: if the same HBR was produced by an earlier
  prefix, Theorem 2.1 guarantees the state is identical, so the current
  branch is redundant and pruned;
* **lazy HBR caching** (``lazy=True``): the *lazy* HBR fingerprint is
  used instead.  Both prefixes were actually executed, hence feasible,
  so Theorem 2.2 applies and the prune is equally sound — but because
  many distinct HBRs share one lazy HBR, pruning triggers much earlier
  in lock-heavy programs.

Within the same schedule budget, the lazy variant therefore reaches
*more distinct terminal states* — exactly the comparison of the paper's
Figure 3.

On the unified kernel this is the DFS strategy plus an ``on_step``
pruning hook, which reads the fingerprint off whatever the kernel
hands it: the executor's clock engine after a step, or a step's
lookahead before it.  The fingerprint cache is *global strategy
state*, not part of any work item.  Every prefix is probed exactly
once.  The replayed ancestors of a work item were probed when first
executed; the item's own last step, a sibling alternative no schedule
has run before, is probed like any new step, so a hit prunes it before
any of its siblings is expanded.  The fingerprint is a function of the
clock state and the next event's label, so it is known before the
event runs: where a step leaves a state that still roots pending
siblings, the kernel probes the step's lookahead first (the clock
engine's ``fingerprint_after``, a read of its tables) and a hit never
executes the step, keeping the executor at the branch point for the
next sibling.  The cache sees the same inserts in the same order
either way.  Checkpoints serialize the cache contents (so a resumed
run prunes identically); split shards each start from the seed run's
cache and prune independently — sound, since HBR pruning only ever
removes branches whose states are reached from an equivalent retained
prefix *within the same shard*.
"""

from __future__ import annotations

from typing import Any, Dict, List

from ..core.cache import FingerprintCache
from .base import ExplorationStats
from .frontier import Annotation, Frontier
from .kernel import Expansion, KernelExplorer, Strategy

_EMPTY: Annotation = {}


class HBRCachingStrategy(Strategy):
    """DFS with prefix-HBR pruning; ``lazy`` selects the relation."""

    def __init__(self, lazy: bool = False) -> None:
        self.lazy = lazy
        self.name = "lazy-hbr-caching" if lazy else "hbr-caching"
        self.cache = FingerprintCache()
        #: fingerprints freshly inserted by the in-flight schedule —
        #: rolled back if the kernel abandons it mid-way
        self._schedule_fps: List[int] = []

    def expand(self, enabled: List[int], ann: Annotation) -> Expansion:
        return Expansion(
            chosen=enabled[0],
            ann_after=_EMPTY,
            alternatives=[(tid, _EMPTY) for tid in enabled[1:]],
        )

    def on_schedule_start(self, item) -> None:
        self._schedule_fps = []

    def on_step(self, engine) -> bool:
        fp = (engine.lazy_fingerprint() if self.lazy
              else engine.hbr_fingerprint())
        if self.cache.insert(fp):
            self._schedule_fps.append(fp)
            return False
        return True

    def on_schedule_abort(self) -> None:
        # the abandoned schedule is re-executed on resume; without the
        # rollback it would hit its own stale insertions and prune its
        # entire subtree
        for fp in self._schedule_fps:
            self.cache.unrecord(fp)
        self._schedule_fps = []

    def finalize(self, stats: ExplorationStats,
                 frontier: Frontier) -> None:
        stats.extra["cache_size"] = len(self.cache)
        stats.extra["cache_hits"] = self.cache.hits

    def state_to_dict(self) -> Dict[str, Any]:
        return self.cache.to_dict()

    def state_from_dict(self, payload: Dict[str, Any]) -> None:
        if payload:
            self.cache = FingerprintCache.from_dict(payload)


class HBRCachingExplorer(KernelExplorer):
    """DFS with prefix-HBR pruning; ``lazy`` selects the relation."""

    name = "hbr-caching"

    def __init__(self, program, limits=None, lazy: bool = False) -> None:
        super().__init__(program, limits, strategy=HBRCachingStrategy(lazy))
        self.lazy = lazy

    @property
    def cache(self) -> FingerprintCache:
        return self.strategy.cache
