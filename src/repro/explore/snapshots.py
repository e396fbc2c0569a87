"""The prefix-keyed snapshot tree: cached executor states at branch
points of one exploration.

Stateless-replay exploration re-executes every schedule from step zero,
even though depth-first neighbours share almost their whole prefix.  The
:class:`SnapshotTree` turns that redundancy into cache hits: the kernel
(and DPOR's bespoke loop) snapshot the executor at scheduling points
that root unexplored siblings, keyed by the schedule prefix reaching
them; when a work item is popped, ``lookup`` finds the deepest cached
ancestor of the prefix the explorer needs and it resumes from there,
replaying only the remainder.  The kernel takes a snapshot only when
its executor departs such a point: where a cache probe prunes the step
before it runs, the executor stays put and is handed to the next
sibling as-is (``Explorer._executor_at``), so a point whose children
all hit is never captured.

Keys are pure schedule prefixes — *not* strategy annotations — because
the guest program is deterministic: the executor state at a prefix is a
function of the prefix alone.  One tree therefore serves every strategy
root (iterative bounding's per-bound passes share each other's
snapshots) and composes with DPOR's dynamically grown stack, whose
serialized form is also a schedule prefix per node.

Memory is bounded: entries are LRU-evicted once the configured byte
budget (estimated — see ``ExecutorSnapshot.approx_bytes``) is exceeded.
Eviction only costs performance, never correctness: a miss falls back
to the exploration's boot snapshot and replays the whole prefix, which
is byte-identical by the snapshot equivalence guarantee.  The tree is
in-memory only — explorer ``snapshot()/restore()`` checkpoints do not
serialize it; a resumed run simply starts with a cold cache.
"""

from __future__ import annotations

from collections import OrderedDict
from typing import Any, Dict, Optional, Tuple

from ..runtime.snapshot import ExecutorSnapshot

Prefix = Tuple[int, ...]


class SnapshotTree:
    """LRU cache of :class:`ExecutorSnapshot` keyed by schedule prefix."""

    __slots__ = (
        "budget_bytes", "bytes_used", "bytes_high_water",
        "hits", "misses", "inserts", "evictions", "rejected",
        "resumed_events", "replayed_events",
        "_entries", "_depth_counts", "_max_depth",
    )

    def __init__(self, budget_bytes: int) -> None:
        if budget_bytes < 0:
            raise ValueError(
                f"snapshot budget must be >= 0, got {budget_bytes}"
            )
        self.budget_bytes = budget_bytes
        self.bytes_used = 0
        self.bytes_high_water = 0
        self.hits = 0
        self.misses = 0
        self.inserts = 0
        self.evictions = 0
        self.rejected = 0            #: inserts refused (snapshot > budget)
        #: prefix events *not* re-executed because the explorer
        #: resumed from a snapshot or was handed an executor already
        #: standing there, vs prefix events replayed the hard way (both
        #: maintained by ``Explorer._executor_at``).  Events no
        #: schedule ran before — the kernel's work items place at their
        #: parent, so their own last step is one — are neither.
        self.resumed_events = 0
        self.replayed_events = 0
        self._entries: "OrderedDict[Prefix, ExecutorSnapshot]" = OrderedDict()
        # live key count per depth + current deepest key: bounds the
        # lookup probe range, so a miss against a shallow cache costs
        # O(cached depth) slices instead of O(len(prefix)^2) hashing
        self._depth_counts: Dict[int, int] = {}
        self._max_depth = 0

    def __len__(self) -> int:
        return len(self._entries)

    # ------------------------------------------------------------------
    def lookup(self, prefix: Prefix) -> Optional[Tuple[int, ExecutorSnapshot]]:
        """Deepest cached ancestor of ``prefix`` (the prefix itself
        included), as ``(depth, snapshot)``; None on a complete miss.
        Probes deepest-first — in the depth-first common case the
        prefix itself is the cached branch point (the kernel asks for
        a work item's parent) or sits one step below it, so the first
        or second probe hits."""
        entries = self._entries
        if entries:
            for depth in range(min(len(prefix), self._max_depth), 0, -1):
                key = prefix[:depth]
                if key in entries:
                    entries.move_to_end(key)
                    self.hits += 1
                    return depth, entries[key]
        self.misses += 1
        return None

    def wants(self, prefix: Prefix) -> bool:
        """Would an insert at ``prefix`` store anything new?  (Checked
        before paying the snapshot cost.)  Depth-0 snapshots are never
        wanted: the explorer holds its boot snapshot outside the tree
        (see ``Explorer._executor_at``), where eviction cannot reach
        it."""
        return bool(prefix) and prefix not in self._entries

    def insert(self, prefix: Prefix, snapshot: ExecutorSnapshot) -> bool:
        """Cache ``snapshot`` under ``prefix``, LRU-evicting to stay
        within the byte budget.  Returns False when the snapshot alone
        exceeds the whole budget (it is not stored)."""
        size = snapshot.approx_bytes
        if size > self.budget_bytes:
            self.rejected += 1
            return False
        entries = self._entries
        old = entries.pop(prefix, None)
        if old is not None:  # pragma: no cover - wants() guards this
            self.bytes_used -= old.approx_bytes
            self._drop_depth(len(prefix))
        while entries and self.bytes_used + size > self.budget_bytes:
            evicted_key, evicted = entries.popitem(last=False)
            self.bytes_used -= evicted.approx_bytes
            self.evictions += 1
            self._drop_depth(len(evicted_key))
        entries[prefix] = snapshot
        self.bytes_used += size
        self.inserts += 1
        depth = len(prefix)
        counts = self._depth_counts
        counts[depth] = counts.get(depth, 0) + 1
        if depth > self._max_depth:
            self._max_depth = depth
        if self.bytes_used > self.bytes_high_water:
            self.bytes_high_water = self.bytes_used
        return True

    def _drop_depth(self, depth: int) -> None:
        counts = self._depth_counts
        counts[depth] -= 1
        if not counts[depth]:
            del counts[depth]
            if depth == self._max_depth:
                self._max_depth = max(counts, default=0)

    def clear(self) -> None:
        self._entries.clear()
        self.bytes_used = 0
        self._depth_counts = {}
        self._max_depth = 0

    # ------------------------------------------------------------------
    def stats(self) -> Dict[str, Any]:
        """Counters for perf reports (``bench --scenario prefix``)."""
        probes = self.hits + self.misses
        return {
            "entries": len(self._entries),
            "bytes_used": self.bytes_used,
            "bytes_high_water": self.bytes_high_water,
            "budget_bytes": self.budget_bytes,
            "hits": self.hits,
            "misses": self.misses,
            "hit_rate": (self.hits / probes) if probes else 0.0,
            "inserts": self.inserts,
            "evictions": self.evictions,
            "rejected": self.rejected,
            "resumed_events": self.resumed_events,
            "replayed_events": self.replayed_events,
        }
