"""Fingerprint caches for HBR caching (Musuvathi–Qadeer) and the lazy
variant contributed by the paper.

A cache is conceptually a set of fingerprints of (lazy) HBRs of
executed prefixes.  ``insert`` returns whether the fingerprint was new;
a hit means the current prefix is redundant — some earlier feasible
prefix had the same (lazy) HBR, hence by Theorem 2.1 (regular) or
Theorem 2.2 (lazy) reaches the same state, and the continuation can be
pruned.
"""

from __future__ import annotations

from typing import Any, Dict, Set


class FingerprintCache:
    """A set of fingerprints with hit/miss statistics."""

    __slots__ = ("_set", "hits", "misses")

    def __init__(self) -> None:
        self._set: Set[int] = set()
        self.hits = 0
        self.misses = 0

    def insert(self, fingerprint: int) -> bool:
        """Record ``fingerprint``; return True when it was not seen before."""
        s = self._set
        if fingerprint in s:
            self.hits += 1
            return False
        self.misses += 1
        s.add(fingerprint)
        return True

    def unrecord(self, fingerprint: int) -> None:
        """Roll back one fresh :meth:`insert` (the exploration kernel
        undoes an abandoned schedule's insertions so the re-executed
        schedule is not pruned by its own stale entries).  Only valid
        for a fingerprint whose insert returned True."""
        self._set.discard(fingerprint)
        self.misses -= 1

    def __contains__(self, fingerprint: int) -> bool:
        return fingerprint in self._set

    def __len__(self) -> int:
        return len(self._set)

    def clear(self) -> None:
        self._set.clear()
        self.hits = 0
        self.misses = 0

    # -- serialization (explorer snapshot/restore) -------------------------
    def to_dict(self) -> Dict[str, Any]:
        """JSON-safe contents + statistics (fingerprints sorted, so
        equal caches serialize identically)."""
        return {
            "fingerprints": sorted(self._set),
            "hits": self.hits,
            "misses": self.misses,
        }

    @classmethod
    def from_dict(cls, payload: Dict[str, Any]) -> "FingerprintCache":
        """Inverse of :meth:`to_dict`.  Keys are read with ``.get`` and
        unknown keys are ignored, so checkpoints written by other
        versions still load."""
        cache = cls()
        cache._set = set(payload.get("fingerprints", ()))
        cache.hits = payload.get("hits", 0)
        cache.misses = payload.get("misses", 0)
        return cache
