"""PCT — probabilistic concurrency testing (Burckhardt et al., ASPLOS
2010), the randomized scheduler with a bug-depth guarantee.

Each run draws distinct random priorities for the threads and ``d-1``
priority-change points (event indices).  At every step the enabled
thread with the highest current priority runs; when the global event
count crosses a change point, the running thread's priority drops below
all others.  For a program with ``n`` threads and ``k`` events, a bug
of depth ``d`` is found with probability >= 1/(n * k^(d-1)) per run.
"""

from __future__ import annotations

import random
from typing import Dict

from .base import Explorer


class PCTExplorer(Explorer):
    """Independent PCT runs (depth ``d``, seeded)."""

    name = "pct"

    def __init__(
        self,
        program,
        limits=None,
        depth: int = 3,
        expected_events: int = 64,
        seed: int = 0,
    ) -> None:
        super().__init__(program, limits)
        if depth < 1:
            raise ValueError("PCT depth must be >= 1")
        self.depth = depth
        self.expected_events = expected_events
        self.seed = seed

    def _explore(self) -> None:
        rng = random.Random(self.seed)
        while not self._budget_exceeded():
            self._schedule_started()
            self._one_run(rng)

    def _one_run(self, rng: random.Random) -> None:
        ex, _ = self._executor_at(())
        # base priorities: uniform random in (0, 1), i.e. a uniformly
        # random priority ordering per run; ties have probability zero
        priorities: Dict[int, float] = {}
        change_points = sorted(
            rng.randrange(1, max(2, self.expected_events))
            for _ in range(self.depth - 1)
        )
        low = 0.0  # change points push priorities below every base one
        steps = 0
        # hot loop: bound methods hoisted
        is_done = ex.is_done
        enabled_of = ex.enabled
        step = ex.step
        prio_of = priorities.__getitem__
        while not is_done():
            enabled = enabled_of()
            for tid in enabled:
                if tid not in priorities:
                    priorities[tid] = rng.random()
            chosen = max(enabled, key=prio_of)
            step(chosen)
            steps += 1
            while change_points and steps >= change_points[0]:
                change_points.pop(0)
                low -= 1.0
                priorities[chosen] = low
        result = ex.finish()
        self.stats.num_events += result.num_events
        self._record_terminal(result)
        self._retire(ex)
