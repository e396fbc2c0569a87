"""Canonical fingerprints of (lazy) happens-before relations.

A happens-before relation is identified, up to equality, by the
per-thread sequence of event labels together with each event's vector
clock under that relation: two schedules have the same HBR iff every
thread performs the same labelled events and each event has the same
clock.  (The clock of an event encodes exactly the set of events that
happen-before it.)

For counting and caching we do not materialise that structure; instead
each thread maintains a *chained hash* updated per event::

    h_t  <-  hash((h_t, kind, oid, key, clock))      # flat label form

(:meth:`FingerprintChain.update` accepts the label as a tuple and
flattens it into exactly this form; the clock engine inlines the same
formula to avoid per-event call overhead, so API-built and
engine-built chains produce identical fingerprints — the equivalence
tests assert it.)

and a prefix fingerprint is ``hash((n_events, h_0, ..., h_k))``.  All
hashed values are tuples of ints, for which CPython's ``hash`` is
deterministic across processes (hash randomisation only affects strings
and bytes), so fingerprints are stable and reproducible.  Event labels
are normalised by :func:`fingerprint_label` before hashing: a missing
sub-object key becomes ``-1``, because ``hash(None)`` is id-derived on
CPython < 3.12 and therefore differs between processes.  (Programs
using *string* dict keys still get per-process fingerprints — see
``SharedDict`` — which is fine within one exploration.)

The exact, collision-free form of that identity is a function of a
run's stamped events, each of which carries its clocks under both
relations: :func:`canonical_hbr` reads it off them.  The clock engines
never build it.
"""

from __future__ import annotations

from typing import Any, Iterable, List, Tuple

_SEED = 0x9E3779B97F4A7C15  # golden-ratio constant; any fixed seed works


def fingerprint_label(kind: int, oid: int, key) -> Tuple[int, int, object]:
    """The hashable label of an executed operation.

    ``key=None`` (whole-object access) maps to ``-1`` so the label is a
    pure int tuple for every non-dict program, making its hash — and so
    the fingerprints — stable across worker processes.  (``-1`` cannot
    collide with a real key: array indices are non-negative and
    whole-object accesses never carry a key.)
    """
    return (int(kind), oid, -1 if key is None else key)


class FingerprintChain:
    """Incremental per-thread chained hashes for one HB relation."""

    __slots__ = ("_chains", "_count")

    def __init__(self) -> None:
        self._chains: List[int] = []
        self._count = 0

    def ensure_thread(self, tid: int) -> None:
        chains = self._chains
        while len(chains) <= tid:
            chains.append(hash((_SEED, len(chains))))

    def update(self, tid: int, label: Tuple[int, int, object],
               clock: Tuple[int, ...]) -> None:
        """Fold one executed event into thread ``tid``'s chain.

        Hashes the flat ``(h, kind, oid, key, clock)`` form — the same
        formula :meth:`DualClockEngine.observe` inlines — with a
        ``None`` key normalised to ``-1``, so chains built through this
        public API (e.g. via :meth:`fork`) stay comparable with
        engine-produced fingerprints.
        """
        chains = self._chains
        if tid >= len(chains):
            self.ensure_thread(tid)
        kind, oid, key = label
        if key is None:
            key = -1
        chains[tid] = hash((chains[tid], kind, oid, key, clock))
        self._count += 1

    def prefix_fingerprint(self) -> int:
        """Fingerprint of the HBR of the trace executed so far."""
        return hash((self._count, tuple(self._chains)))

    @property
    def event_count(self) -> int:
        return self._count

    def fork(self) -> "FingerprintChain":
        """An independent copy (used by explorers that branch in-memory)."""
        c = FingerprintChain.__new__(FingerprintChain)
        c._chains = list(self._chains)
        c._count = self._count
        return c


def canonical_hbr(events: Iterable[Any], lazy: bool = False) -> Tuple:
    """The exact form of the regular HBR (or, with ``lazy``, the lazy
    HBR) of a run, read off the stamped events
    (:class:`~repro.core.events.Event`) it executed, in order.

    Per thread, up to the last thread with events, the sequence of its
    events' ``((kind, oid, key), clock)`` pairs: two runs have the
    same relation exactly when these values are equal, with no hash
    collisions.  The value is hashable.
    """
    threads: List[List[Tuple[Tuple[int, int, Any], Tuple[int, ...]]]] = []
    for e in events:
        tid = e.tid
        while len(threads) <= tid:
            threads.append([])
        threads[tid].append(
            ((e.kind, e.oid, e.key), e.lazy_clock if lazy else e.clock)
        )
    return tuple(tuple(seq) for seq in threads)
