"""Intra-cell partial checkpoints: one file per half-explored cell.

A *partial* is the serialized in-progress state of one exploration —
an explorer ``snapshot()`` (frontier of remaining work items,
statistics with fingerprint sets, strategy state such as HBR caches) —
stamped with the cell key and the :class:`ExplorationLimits` it was
produced under.  Workers write partials periodically, through the
explorer's between-schedules control hook (:func:`checkpoint_control`),
and when a cell stops on a budget limit; ``--resume`` then continues
the cell from its frontier instead of schedule zero.

Partials live as individual files under ``<checkpoint>.partials/`` —
one atomic ``os.replace`` per write — so pool workers in separate
processes can checkpoint concurrently without coordinating over the
main JSON store.

Limits compatibility: a partial resumes under the limits it was
written with, or under *laxer* ones (a larger ``max_schedules``, a
larger/removed ``max_seconds``) — the restored schedule and elapsed
counts are charged against the new budgets.  Tighter limits (or a
changed per-schedule event bound, which alters exploration itself)
discard the partial.
"""

from __future__ import annotations

import json
import os
import time
from pathlib import Path
from typing import Any, Callable, Dict, Optional, Union

from ..explore.base import ExplorationLimits, Explorer
from ..ioutil import atomic_write_json

PARTIAL_VERSION = 1


def checkpoint_control(
    sink: Callable[[Dict[str, Any]], None],
    interval: float = 2.0,
) -> Callable[[Explorer], None]:
    """A between-schedules control function (see
    :meth:`~repro.explore.base.Explorer.set_control`) that hands
    ``sink`` a fresh ``snapshot()`` at most every ``interval`` seconds,
    the first one ``interval`` after this call (so ``0`` checkpoints at
    every boundary).  The explorer must have a ``snapshot`` method.
    Once a stop was requested it takes no more snapshots: the run ends
    at this boundary, and whoever stopped it owns what happens next."""
    last = time.monotonic()

    def control(explorer: Explorer) -> None:
        nonlocal last
        if explorer.stop_requested:
            return
        now = time.monotonic()
        if now - last < interval:
            return
        last = now
        sink(explorer.snapshot())  # type: ignore[attr-defined]

    return control


def limits_to_dict(limits: ExplorationLimits) -> Dict[str, Any]:
    return {
        "max_schedules": limits.max_schedules,
        "max_seconds": limits.max_seconds,
        "max_events_per_schedule": limits.max_events_per_schedule,
    }


def limits_resumable_under(stored: Dict[str, Any],
                           current: ExplorationLimits) -> bool:
    """May a partial written under ``stored`` continue under
    ``current``?  Equal or laxer budgets only; the per-schedule event
    bound must match exactly (it changes which schedules exist)."""
    if stored.get("max_events_per_schedule") != \
            current.max_events_per_schedule:
        return False
    stored_schedules = stored.get("max_schedules")
    if not isinstance(stored_schedules, int) or \
            current.max_schedules < stored_schedules:
        return False
    stored_seconds = stored.get("max_seconds")
    if current.max_seconds is not None and (
            stored_seconds is None or current.max_seconds < stored_seconds):
        return False
    return True


def partial_path(base: Union[str, Path], key: str) -> Path:
    """File for one cell's partial under the ``.partials`` sibling of
    checkpoint ``base``.  Cell keys contain only ``[\\w.@/-]`` and
    ``:``; the separators are mapped to filename-safe characters."""
    safe = key.replace(":", "+").replace("/", "_")
    return Path(f"{base}.partials") / f"{safe}.json"


def write_partial(
    path: Union[str, Path],
    key: str,
    limits: ExplorationLimits,
    snapshot: Dict[str, Any],
) -> None:
    """Atomically persist one partial snapshot (crash-safe: a killed
    writer leaves the previous file intact, never a torn one)."""
    payload = {
        "version": PARTIAL_VERSION,
        "key": key,
        "limits": limits_to_dict(limits),
        "snapshot": snapshot,
    }
    atomic_write_json(path, payload, indent=0)


def read_partial(
    path: Union[str, Path],
    key: str,
    limits: ExplorationLimits,
) -> Optional[Dict[str, Any]]:
    """Load the snapshot for ``key`` if present, well-formed and
    resumable under ``limits``; None otherwise (never raises — a
    corrupt partial just means a from-scratch run)."""
    try:
        payload = json.loads(Path(path).read_text())
    except (OSError, ValueError):
        return None
    if not isinstance(payload, dict):
        return None
    if payload.get("version") != PARTIAL_VERSION:
        return None
    if payload.get("key") != key:
        return None
    stored_limits = payload.get("limits")
    if not isinstance(stored_limits, dict) or not \
            limits_resumable_under(stored_limits, limits):
        return None
    snapshot = payload.get("snapshot")
    return snapshot if isinstance(snapshot, dict) else None


def clear_partial(path: Union[str, Path]) -> None:
    try:
        os.unlink(path)
    except OSError:
        pass
