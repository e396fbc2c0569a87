"""Benchmark metadata."""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

from ..runtime.program import Program


@dataclass(frozen=True)
class Benchmark:
    """One suite entry: a program plus evaluation metadata.

    ``small`` marks instances whose full state space is cheap enough for
    exhaustive DFS, used as ground truth in the soundness tests.
    ``expect_error`` names the property violation some schedule of the
    program exhibits (``"deadlock"``, ``"assertion"``, or ``"channel"``
    for channel-misuse crashes; the mapping to error classes lives in
    ``tests/test_bug_finding.py``'s ``EXPECTED_KIND``), or None for
    correct programs.
    """

    bench_id: int
    family: str
    program: Program
    small: bool = False
    expect_error: Optional[str] = None
    notes: str = ""

    @property
    def name(self) -> str:
        return self.program.name

