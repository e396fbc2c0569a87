"""The reference replay path for equivalence tests.

Explorers share schedule prefixes through one spine of branch-point
snapshots (``Explorer._spine``), and ``Explorer._capture`` is the only
push onto it after the initial state.  Inside :func:`capture_off` that
push does nothing, so every acquisition restores the initial state and
replays the whole prefix (an executor held at exactly the requested
prefix is still served as-is).  Comparing a run inside the block with
one outside checks that prefix sharing changes no result.

It is a ``with`` block rather than a fixture so that hypothesis
properties, whose examples share one function-scoped fixture, can
switch it per run.
"""

from __future__ import annotations

import contextlib
from typing import Iterator

from repro.explore.base import Explorer


@contextlib.contextmanager
def capture_off() -> Iterator[None]:
    """Explorations run inside the block push no branch point onto
    their spine."""
    saved = Explorer._capture
    Explorer._capture = lambda self, ex: None
    try:
        yield
    finally:
        Explorer._capture = saved
