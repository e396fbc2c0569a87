"""Random-walk exploration: independent uniformly-scheduled runs.

The classic stress-testing baseline: no reduction, no memory between
runs.  Useful in the harness to show how many schedules random testing
needs to reach the states POR strategies reach systematically.
"""

from __future__ import annotations

import random

from .base import Explorer


class RandomWalkExplorer(Explorer):
    """Runs ``limits.max_schedules`` independent random schedules."""

    name = "random"

    def __init__(self, program, limits=None, seed: int = 0) -> None:
        super().__init__(program, limits)
        self.seed = seed

    def _explore(self) -> None:
        rng = random.Random(self.seed)
        randrange = rng.randrange
        while not self._budget_exceeded():
            self._schedule_started()
            ex, _ = self._executor_at(())
            # hot loop: bound methods hoisted
            is_done = ex.is_done
            enabled_of = ex.enabled
            step = ex.step
            while not is_done():
                enabled = enabled_of()
                step(enabled[randrange(len(enabled))])
            result = ex.finish()
            self.stats.num_events += result.num_events
            self._record_terminal(result)
            self._retire(ex)
