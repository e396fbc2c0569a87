"""The exploration frontier: serializable schedule-prefix work items.

Stateless search-based SCT (Verisoft/CHESS and every explorer in the
paper) cannot checkpoint *program states* — but a schedule prefix plus
a small strategy annotation fully determines the subtree of executions
rooted at it, and both are cheap, JSON-serializable scalars.  The
:class:`Frontier` makes that explicit: it is the set of unexplored
subtree roots of one exploration, maintained in LIFO order so the
kernel loop (:mod:`repro.explore.kernel`) reproduces exactly the
depth-first schedule sequence the frame-based explorers produced.

Because the frontier *is* the in-progress exploration state, it buys
two things the old implicit-stack explorers could not offer:

* ``to_dict``/``from_dict`` — checkpoint an exploration between
  schedules and resume it later, in another process, bit-for-bit;
* ``split(k)`` — partition the frontier into ``k`` disjoint,
  exhaustive sub-frontiers whose subtrees can be explored by separate
  workers and union-merged (see ``repro.campaign``).

See DESIGN.md §3 for the architecture.
"""

from __future__ import annotations

from typing import Any, Dict, Iterable, Iterator, List, Optional, Tuple

FRONTIER_VERSION = 1

#: Strategy annotations are flat JSON-safe dicts (str keys; scalar
#: values, or lists of scalars for set-valued state such as DPOR
#: backtrack sets).  Kept flat so work items stay cheap to serialize
#: and trivially picklable for process pools.
Annotation = Dict[str, Any]

_SCALARS = (int, float, str, bool, type(None))


def _annotation_value_ok(value: Any) -> bool:
    if isinstance(value, _SCALARS):
        return True
    return isinstance(value, list) and all(
        isinstance(v, _SCALARS) for v in value
    )


class WorkItem:
    """One unexplored subtree root: a schedule prefix + strategy state.

    ``prefix`` is the sequence of thread choices leading to the branch
    point; replaying it (the only way to reconstruct the program state)
    and then extending with the owning strategy's deterministic default
    choices enumerates exactly the subtree rooted here.  ``annotation``
    carries whatever per-path state the strategy threads along
    (preemption budget, delay budget, round-robin cursor, ...).
    """

    __slots__ = ("prefix", "annotation")

    def __init__(self, prefix: Iterable[int],
                 annotation: Optional[Annotation] = None) -> None:
        self.prefix: Tuple[int, ...] = tuple(prefix)
        self.annotation: Annotation = annotation or {}

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"WorkItem({list(self.prefix)}, {self.annotation})"

    def __eq__(self, other: object) -> bool:
        return (isinstance(other, WorkItem)
                and self.prefix == other.prefix
                and self.annotation == other.annotation)

    def __hash__(self) -> int:
        return hash((self.prefix, tuple(sorted(
            (k, tuple(v) if isinstance(v, list) else v)
            for k, v in self.annotation.items()
        ))))

    def to_dict(self) -> Dict[str, Any]:
        for key, value in self.annotation.items():
            if not isinstance(key, str) or not _annotation_value_ok(value):
                raise TypeError(
                    f"work-item annotation {key!r}={value!r} is not "
                    f"JSON-safe (str keys, scalar or scalar-list values "
                    f"required)"
                )
        return {"prefix": list(self.prefix), "annotation": self.annotation}

    @classmethod
    def from_dict(cls, payload: Dict[str, Any]) -> "WorkItem":
        return cls(
            [int(t) for t in payload["prefix"]],
            dict(payload.get("annotation") or {}),
        )


class Frontier:
    """LIFO container of :class:`WorkItem` — the unexplored subtree
    roots of one in-progress exploration.

    Invariant (maintained by the kernel, exploited by :meth:`split`):
    no item's prefix is a prefix of another item's, so the subtrees
    rooted at distinct items are disjoint and their union is exactly
    the remaining unexplored schedule set.
    """

    __slots__ = ("_items",)

    def __init__(self, items: Optional[Iterable[WorkItem]] = None) -> None:
        self._items: List[WorkItem] = list(items) if items else []

    # -- stack interface ---------------------------------------------------
    def push(self, item: WorkItem) -> None:
        self._items.append(item)

    def pop(self) -> WorkItem:
        return self._items.pop()

    def pop_shallowest(self) -> WorkItem:
        """Remove and return the item with the shortest prefix (first
        such in stack order).  Used by seed-for-split mode: expanding
        shallow items first grows the frontier breadth-first, yielding
        many similarly-sized subtree roots to deal across shards —
        LIFO expansion would keep the frontier at O(depth) items with
        exponentially skewed subtrees.  A linear scan: seeding pops a
        few hundred items at most, from a frontier of about a thousand.
        """
        items = self._items
        if not items:
            raise IndexError("pop_shallowest from an empty frontier")
        return items.pop(min(range(len(items)),
                             key=lambda i: len(items[i].prefix)))

    def peek(self) -> WorkItem:
        return self._items[-1]

    def __len__(self) -> int:
        return len(self._items)

    def __bool__(self) -> bool:
        return bool(self._items)

    def __iter__(self) -> Iterator[WorkItem]:
        """Bottom-to-top; the *last* item is the next to be explored."""
        return iter(self._items)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Frontier):
            return False
        return self._items == other._items

    # -- serialization -----------------------------------------------------
    def to_dict(self) -> Dict[str, Any]:
        return {
            "version": FRONTIER_VERSION,
            "items": [item.to_dict() for item in self._items],
        }

    @classmethod
    def from_dict(cls, payload: Dict[str, Any]) -> "Frontier":
        version = payload.get("version")
        if version != FRONTIER_VERSION:
            raise ValueError(
                f"unsupported frontier payload version {version!r} "
                f"(expected {FRONTIER_VERSION})"
            )
        return cls(WorkItem.from_dict(p) for p in payload["items"])

    # -- work stealing -----------------------------------------------------
    def steal(self, k: int) -> "Frontier":
        """Remove up to ``k`` items from the *bottom* of the stack and
        return them as a new frontier (possibly empty).

        The bottom items are the oldest unexplored subtree roots —
        under depth-first order the ones this exploration would reach
        *last*, which makes them the natural donation to an idle
        worker: the victim keeps its current locality (the top of the
        stack it is about to pop) and hands over the largest, most
        distant chunks of remaining work.  The two frontiers partition
        this one's items exactly (relative order preserved on both
        sides), so by the frontier invariant the stolen subtrees are
        disjoint from everything the victim keeps — stolen work is
        explored exactly once, wherever it lands.

        Deterministic: a pure function of item order and ``k``.
        """
        if k < 0:
            raise ValueError(f"steal requires k >= 0, got {k}")
        k = min(k, len(self._items))
        stolen = self._items[:k]
        self._items = self._items[k:]
        return Frontier(stolen)

    # -- sharding ----------------------------------------------------------
    def split(self, k: int) -> List["Frontier"]:
        """Partition into ``k`` sub-frontiers (some possibly empty).

        Items are dealt round-robin **from the top of the stack**, so
        the items a serial run would explore soonest — which root the
        largest unexplored subtrees under depth-first order — spread
        evenly across shards.  Each shard preserves the relative LIFO
        order of its items; the shards are pairwise disjoint and their
        union (as multisets) is exactly this frontier, hence by the
        frontier invariant the sharded subtrees partition the remaining
        schedule set.  Deterministic: a pure function of item order.
        """
        if k < 1:
            raise ValueError(f"split requires k >= 1, got {k}")
        shards: List[List[WorkItem]] = [[] for _ in range(k)]
        # deal in pop order (top first), then restore stack order
        for i, item in enumerate(reversed(self._items)):
            shards[i % k].append(item)
        return [Frontier(reversed(shard)) for shard in shards]
