"""Frozen pre-kernel explorer implementations (golden references).

These are verbatim copies of the frame-based ``_explore`` loops the
DFS-family explorers shipped before the unified exploration kernel
(``repro.explore.kernel``) replaced them, instrumented with a
``schedule_log`` that records every executed schedule (full schedules
for terminal runs, the executed prefix for pruned runs).

``tests/test_kernel_equivalence.py`` runs each kernel-ported strategy
against its reference here and asserts byte-identical schedule
sequences, fingerprint sets and statistics.

(Lazy) HBR caching is the exception: its old frame loop skipped the
cache probe on each branch's first event, so it is held instead to
``OracleHBRCaching``, an independent recursive search written from the
specification (probe after every event), not a copy of any loop.

The DPOR pair freezes the race analysis as it was before it became
incremental (a full per-location scan of every pending op at every
state, no early exit) and lazy-DPOR's former copy of the DPOR loop;
``tests/test_dpor_equivalence.py`` holds the live explorers to them.

The random-walk and PCT loops at the end build a fresh executor for
every schedule, as they did before every explorer acquired executors
through ``Explorer._executor_at``; ``tests/test_kernel_equivalence.py``
holds the live explorers to them.  Do not "improve" this file: its
only job is to stay exactly what the pre-refactor code did.
"""

from __future__ import annotations

import random
from typing import Dict, List, Optional, Set, Tuple

from repro.core.cache import FingerprintCache
from repro.core.dependence import conflicts, may_be_coenabled
from repro.core.events import Event
from repro.explore.base import ExplorationLimits, Explorer
from repro.explore.dpor import DPORExplorer, _Node
from repro.explore.lazy_dpor import LazyDPORExplorer
from repro.explore.pct import PCTExplorer
from repro.explore.random_walk import RandomWalkExplorer
from repro.runtime.executor import Executor


class _LogMixin:
    """Adds the ``schedule_log`` list to a reference explorer."""

    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        self.schedule_log: List[List[int]] = []


# ---------------------------------------------------------------------------
# DFS (pre-kernel repro/explore/dfs.py)
# ---------------------------------------------------------------------------

class _DFSFrame:
    __slots__ = ("enabled", "idx")

    def __init__(self, enabled: List[int]) -> None:
        self.enabled = enabled
        self.idx = 0

    @property
    def chosen(self) -> int:
        return self.enabled[self.idx]


class ReferenceDFS(_LogMixin, Explorer):
    name = "dfs"

    def _explore(self) -> None:
        path: List[_DFSFrame] = []
        first = True
        while first or path:
            first = False
            if self._budget_exceeded():
                return
            self._schedule_started()
            ex = self._new_executor()
            ex.replay_prefix([frame.chosen for frame in path])
            while not ex.is_done():
                frame = _DFSFrame(ex.enabled())
                path.append(frame)
                ex.step(frame.chosen)
            result = ex.finish()
            self.schedule_log.append(list(result.schedule))
            self.stats.num_events += result.num_events
            self._record_terminal(result)
            while path and path[-1].idx + 1 >= len(path[-1].enabled):
                path.pop()
            if path:
                path[-1].idx += 1
            else:
                self.stats.exhausted = True
                return


# ---------------------------------------------------------------------------
# Preemption bounding (pre-kernel repro/explore/bounded.py)
# ---------------------------------------------------------------------------

class _PBFrame:
    __slots__ = ("choices", "idx", "prev_tid", "budget")

    def __init__(self, choices: List[int], prev_tid: int, budget: int) -> None:
        self.choices = choices
        self.idx = 0
        self.prev_tid = prev_tid
        self.budget = budget

    @property
    def chosen(self) -> int:
        return self.choices[self.idx]


class ReferencePreemptionBounded(_LogMixin, Explorer):
    name = "preempt-bounded"

    def __init__(self, program, limits=None, bound: Optional[int] = 2) -> None:
        super().__init__(program, limits)
        self.bound = bound
        if bound is not None:
            self.stats.explorer_name = self.name = f"preempt-bounded({bound})"

    def _choices(self, enabled: List[int], prev_tid: int,
                 budget: int) -> List[int]:
        if prev_tid in enabled:
            if budget <= 0:
                return [prev_tid]
            return [prev_tid] + [t for t in enabled if t != prev_tid]
        return list(enabled)

    def _explore(self) -> None:
        path: List[_PBFrame] = []
        first = True
        while first or path:
            first = False
            if self._budget_exceeded():
                return
            self._schedule_started()
            ex = self._new_executor()
            ex.replay_prefix([frame.chosen for frame in path])
            prev_tid = path[-1].chosen if path else -1
            budget = path[-1].budget if path else (
                self.bound if self.bound is not None else 1 << 30
            )
            if path:
                budget = self._budget_after(path[-1])
            while not ex.is_done():
                enabled = ex.enabled()
                choices = self._choices(enabled, prev_tid, budget)
                frame = _PBFrame(choices, prev_tid, budget)
                path.append(frame)
                chosen = frame.chosen
                budget = self._budget_after(frame)
                prev_tid = chosen
                ex.step(chosen)
            result = ex.finish()
            self.schedule_log.append(list(result.schedule))
            self.stats.num_events += result.num_events
            self._record_terminal(result)
            while path and path[-1].idx + 1 >= len(path[-1].choices):
                path.pop()
            if path:
                path[-1].idx += 1
            else:
                self.stats.exhausted = not self.stats.limit_hit
                return

    def _budget_after(self, frame: _PBFrame) -> int:
        chosen = frame.chosen
        if frame.prev_tid != -1 and frame.prev_tid != chosen and \
                frame.prev_tid in frame.choices:
            return frame.budget - 1
        return frame.budget


class ReferenceIterativeCB(_LogMixin, Explorer):
    name = "iterative-cb"

    def __init__(self, program, limits=None, max_bound: int = 3) -> None:
        super().__init__(program, limits)
        self.max_bound = max_bound
        self.bound_reached = -1

    def _explore(self) -> None:
        remaining = self.limits.max_schedules
        for bound in range(self.max_bound + 1):
            if remaining <= 0:
                self.stats.limit_hit = True
                return
            inner_limits = ExplorationLimits(
                max_schedules=remaining,
                max_seconds=None,
                max_events_per_schedule=self.limits.max_events_per_schedule,
            )
            inner = ReferencePreemptionBounded(
                self.program, inner_limits, bound=bound
            )
            inner.stats.hbr_fps = self.stats.hbr_fps
            inner.stats.lazy_fps = self.stats.lazy_fps
            inner.stats.state_hashes = self.stats.state_hashes
            inner._error_kinds = self._error_kinds
            inner.stats.errors = self.stats.errors
            inner_stats = inner.run()
            self.schedule_log.extend(inner.schedule_log)
            self.stats.num_schedules += inner_stats.num_schedules
            self.stats.num_complete += inner_stats.num_complete
            self.stats.num_events += inner_stats.num_events
            self.stats.num_hbrs = len(self.stats.hbr_fps)
            self.stats.num_lazy_hbrs = len(self.stats.lazy_fps)
            self.stats.num_states = len(self.stats.state_hashes)
            remaining -= inner_stats.num_schedules
            self.bound_reached = bound
            self.stats.extra[f"schedules_bound_{bound}"] = \
                inner_stats.num_schedules
            if self._deadline is not None:
                import time
                if time.monotonic() > self._deadline:
                    self.stats.limit_hit = True
                    return
        self.stats.limit_hit = self.stats.num_schedules >= \
            self.limits.max_schedules


# ---------------------------------------------------------------------------
# Delay bounding (pre-kernel repro/explore/delay.py)
# ---------------------------------------------------------------------------

class _DelayFrame:
    __slots__ = ("enabled", "delays", "budget_left", "start")

    def __init__(self, enabled: List[int], budget_left: int,
                 start: int) -> None:
        self.enabled = enabled
        self.delays = 0
        self.budget_left = budget_left
        self.start = start

    @property
    def chosen(self) -> int:
        return self.enabled[(self.start + self.delays) % len(self.enabled)]

    def can_delay_more(self) -> bool:
        return (
            self.delays < self.budget_left
            and self.delays + 1 < len(self.enabled)
        )


class ReferenceDelayBounded(_LogMixin, Explorer):
    name = "delay-bounded"

    def __init__(self, program, limits=None, bound: int = 1) -> None:
        super().__init__(program, limits)
        if bound < 0:
            raise ValueError("delay bound must be >= 0")
        self.bound = bound
        self.stats.explorer_name = self.name = f"delay-bounded({bound})"

    def _default_start(self, enabled: List[int], last_tid: int) -> int:
        for i, tid in enumerate(enabled):
            if tid >= last_tid:
                return i
        return 0

    def _explore(self) -> None:
        path: List[_DelayFrame] = []
        first = True
        while first or path:
            first = False
            if self._budget_exceeded():
                return
            self._schedule_started()
            ex = self._new_executor()
            budget = self.bound
            last_tid = 0
            ex.replay_prefix([frame.chosen for frame in path])
            if path:
                budget = path[-1].budget_left - path[-1].delays
                last_tid = path[-1].chosen
            while not ex.is_done():
                enabled = ex.enabled()
                start = self._default_start(enabled, last_tid)
                frame = _DelayFrame(enabled, budget, start)
                path.append(frame)
                last_tid = frame.chosen
                ex.step(frame.chosen)
            result = ex.finish()
            self.schedule_log.append(list(result.schedule))
            self.stats.num_events += result.num_events
            self._record_terminal(result)
            while path and not path[-1].can_delay_more():
                path.pop()
            if path:
                path[-1].delays += 1
            else:
                self.stats.exhausted = not self.stats.limit_hit
                return


# ---------------------------------------------------------------------------
# (Lazy) HBR caching: a paper-literal oracle, not a frozen loop
# ---------------------------------------------------------------------------

class _BudgetStop(Exception):
    """Unwinds the recursive oracle when the schedule budget runs out."""


class OracleHBRCaching(_LogMixin, Explorer):
    """HBR caching as Musuvathi & Qadeer (MSR-TR-2007-12) specify it: a
    recursive depth-first ``explore(prefix)`` that probes the
    fingerprint cache after every executed event, each branch's first
    included.  Every node builds a fresh executor and replays its
    prefix: no snapshots, no frontier.  A schedule starts at the root
    and at every non-first enabled thread; terminal schedules are
    logged in full, pruned ones as the executed prefix."""

    name = "hbr-caching"

    def __init__(
        self,
        program,
        limits=None,
        lazy: bool = False,
    ) -> None:
        super().__init__(program, limits)
        self.lazy = lazy
        if lazy:
            self.stats.explorer_name = self.name = "lazy-hbr-caching"
        self.cache = FingerprintCache()

    def _start_schedule(self) -> None:
        if self._budget_exceeded():
            raise _BudgetStop
        self._schedule_started()

    def _explore(self) -> None:
        try:
            self._start_schedule()
            self._visit([])
        except _BudgetStop:
            return
        self.stats.exhausted = not self.stats.limit_hit

    def _visit(self, prefix: List[int]) -> None:
        ex = self._new_executor()
        ex.replay_prefix(prefix)
        if prefix:
            fp = (ex.engine.lazy_fingerprint() if self.lazy
                  else ex.engine.hbr_fingerprint())
            if not self.cache.insert(fp):
                self.schedule_log.append(list(prefix))
                self.stats.num_pruned += 1
                self.stats.num_events += ex.num_events
                return
        if ex.is_done():
            result = ex.finish()
            self.schedule_log.append(list(result.schedule))
            self.stats.num_events += result.num_events
            self._record_terminal(result)
            return
        for i, tid in enumerate(ex.enabled()):
            if i:
                self._start_schedule()
            self._visit(prefix + [tid])

    def run(self):
        stats = super().run()
        stats.extra["cache_size"] = len(self.cache)
        stats.extra["cache_hits"] = self.cache.hits
        return stats


# ---------------------------------------------------------------------------
# DPOR race analysis (pre-incremental repro/explore/dpor.py) and
# lazy-DPOR's loop (pre-hook repro/explore/lazy_dpor.py)
# ---------------------------------------------------------------------------

class TerminalLogMixin:
    """Records every terminal schedule, in order, in ``schedule_log``
    (DPOR's loop has no schedule sink; sleep- and cache-pruned runs are
    counted by ``num_pruned``)."""

    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        self.schedule_log: List[List[int]] = []

    def _record_terminal(self, result) -> None:
        self.schedule_log.append(list(result.schedule))
        super()._record_terminal(result)


class _FrozenRaceAnalysis:
    """The full-scan race analysis: every pending op, every state."""

    def _update_backtracks(
        self,
        ex: Executor,
        stack: List[_Node],
        loc_index: Dict[Tuple[int, object], List[int]],
    ) -> None:
        """F–G race analysis: for every pending operation, find the
        latest conflicting, possibly-co-enabled, HB-unordered event and
        register a backtrack point before it."""
        trace = ex.trace
        # the race analysis never reads PendingInfo.enabled, so skip
        # the per-thread enabledness recheck the full accessor pays
        for info in ex.all_pending_infos(refresh_enabled=False):
            if info.oid < 0 and info.released_mutex_oid is None:
                continue
            # the conflict predicates duck-type over the PendingInfo;
            # no throwaway Event allocation per pending op
            pend = info
            cv = ex.engine.thread_clock_raw(info.tid)  # regular clock of tid
            i = self._latest_race(trace, loc_index, pend, cv)
            if i is None or i >= len(stack):
                continue
            node = stack[i]
            # E: threads that could get the pending op (or something
            # happening-before it) running at the pre-state of event i
            p = info.tid
            E: Set[int] = set()
            enabled_at_i = set(node.enabled)
            if p in enabled_at_i:
                E.add(p)
            for j in range(i + 1, len(trace)):
                e_j = trace[j]
                if e_j.tid in enabled_at_i and self._hb_pending(e_j, cv):
                    E.add(e_j.tid)
            if E:
                if not (E & (node.backtrack | node.done)):
                    node.backtrack.add(min(E))
                    node.want_snap = True
            else:
                before = len(node.backtrack)
                node.backtrack.update(enabled_at_i)
                if len(node.backtrack) != before:
                    node.want_snap = True

    def _latest_race(
        self,
        trace: List[Event],
        loc_index: Dict[Tuple[int, object], List[int]],
        pend,  # Event or PendingInfo (duck-typed)
        cv,
    ) -> Optional[int]:
        """Index of the latest event racing with ``pend`` (conflicting,
        possibly co-enabled, not happens-before the pending thread)."""
        # The per-location index lists are appended in trace order, so
        # each candidate source is already ascending: walk the (at
        # most) two lists as a descending merge instead of
        # materialising sorted(set(...)) per pending op per state.
        # WAIT events that released a mutex are indexed under the mutex
        # location already, so MUTEX_KINDS need nothing extra.
        a = loc_index.get((pend.oid, pend.key)) if pend.oid >= 0 else None
        b = (
            loc_index.get((pend.released_mutex_oid, None))
            if pend.released_mutex_oid is not None else None
        )
        ia = len(a) - 1 if a is not None else -1
        ib = len(b) - 1 if b is not None else -1
        while ia >= 0 or ib >= 0:
            va = a[ia] if ia >= 0 else -1
            vb = b[ib] if ib >= 0 else -1
            if va >= vb:
                i = va
                ia -= 1
                if vb == va:
                    ib -= 1  # same event under both locations
            else:
                i = vb
                ib -= 1
            e = trace[i]
            if e.tid == pend.tid:
                continue
            if not conflicts(e, pend):
                continue
            if not may_be_coenabled(e, pend):
                continue
            if self._hb_pending(e, cv):
                # already ordered before the pending op: not a race, and
                # nothing earlier on this location can race either
                # (later events on the location dominate earlier ones);
                # keep scanning, though, because a non-modifying chain
                # may hide an older racing write.
                continue
            return i
        return None


class ReferenceDPOR(TerminalLogMixin, _FrozenRaceAnalysis, DPORExplorer):
    """DPOR with the frozen loop and race analysis."""

    def _run_one(self, stack: List[_Node]) -> Optional[bool]:
        """Replay the stack prefix, then extend to a terminal (or
        sleep-pruned) state, updating backtrack sets.  Returns True if
        the run was pruned by sleep sets, None if the wall-clock
        deadline fired mid-schedule (the stack stays valid: every
        appended node was fully race-analysed before its step ran, so
        a resumed run replays the prefix and picks up exactly at the
        first unanalysed state)."""
        ex, loc_index = self._replay_stack(stack)

        while True:
            if self._deadline_exceeded_midschedule():
                return None
            if ex.is_done():
                result = ex.finish()
                self.stats.num_events += result.num_events
                self._update_backtracks(ex, stack, loc_index)
                self._record_terminal(result)
                self._retire(ex)
                return False
            if len(ex.trace) >= len(stack):
                # a state we have not analysed yet
                self._update_backtracks(ex, stack, loc_index)
                enabled = ex.enabled()
                if len(ex.trace) == len(stack):
                    sleep = self._child_sleep(stack, ex)
                    node = _Node(enabled, sleep)
                    runnable = [t for t in enabled if t not in sleep]
                    if not runnable:
                        # every enabled thread is redundant here: the
                        # continuation is covered by an earlier branch
                        self._retire(ex)
                        return True
                    choice = runnable[0]
                    node.backtrack.add(choice)
                    node.chosen = choice
                    node.done.add(choice)
                    stack.append(node)
            self._index_event(loc_index, ex.trace, ex.step(stack[len(ex.trace)].chosen))


class ReferenceLazyDPOR(TerminalLogMixin, _FrozenRaceAnalysis,
                        LazyDPORExplorer):
    """Lazy-DPOR with its frozen copy of the loop (which never retired
    executors to the instance pool) and the frozen race analysis."""

    def _run_one(self, stack) -> Optional[bool]:
        ex, loc_index = self._replay_stack(stack)

        while True:
            if self._deadline_exceeded_midschedule():
                return None
            if ex.is_done():
                result = ex.finish()
                self.stats.num_events += result.num_events
                self._update_backtracks(ex, stack, loc_index)
                self._record_terminal(result)
                return False
            if len(ex.trace) >= len(stack):
                self._update_backtracks(ex, stack, loc_index)
                enabled = ex.enabled()
                if len(ex.trace) == len(stack):
                    sleep = self._child_sleep(stack, ex)
                    node = _Node(enabled, sleep)
                    runnable = [t for t in enabled if t not in sleep]
                    if not runnable:
                        return True
                    choice = runnable[0]
                    node.backtrack.add(choice)
                    node.chosen = choice
                    node.done.add(choice)
                    stack.append(node)
            event = ex.step(stack[len(ex.trace)].chosen)
            self._index_event(loc_index, ex.trace, event)
            # lazy-HBR pruning: skip continuations of prefixes whose
            # lazy HBR was already reached by an earlier feasible prefix
            if not self.cache.insert(ex.engine.lazy_fingerprint()):
                self.stats.num_events += ex.num_events
                return True


# ---------------------------------------------------------------------------
# Random walk and PCT (pre-acquire/retire repro/explore/random_walk.py
# and repro/explore/pct.py): a fresh executor per schedule, never retired
# ---------------------------------------------------------------------------

class ReferenceRandomWalk(RandomWalkExplorer):
    def _explore(self) -> None:
        rng = random.Random(self.seed)
        randrange = rng.randrange
        while not self._budget_exceeded():
            self._schedule_started()
            ex = self._new_executor()
            # hot loop: bound methods hoisted, choices trusted (drawn
            # from the enabled list we just fetched)
            is_done = ex.is_done
            enabled_of = ex.enabled
            step = ex.step
            while not is_done():
                enabled = enabled_of()
                step(enabled[randrange(len(enabled))], True)
            result = ex.finish()
            self.stats.num_events += result.num_events
            self._record_terminal(result)


class ReferencePCT(PCTExplorer):
    def _one_run(self, rng: random.Random) -> None:
        ex = self._new_executor()
        # base priorities: uniform random in (0, 1), i.e. a uniformly
        # random priority ordering per run; ties have probability zero
        priorities: Dict[int, float] = {}
        change_points = sorted(
            rng.randrange(1, max(2, self.expected_events))
            for _ in range(self.depth - 1)
        )
        low = 0.0  # change points push priorities below every base one
        steps = 0
        # hot loop: bound methods hoisted, choices trusted
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
            step(chosen, True)
            steps += 1
            while change_points and steps >= change_points[0]:
                change_points.pop(0)
                low -= 1.0
                priorities[chosen] = low
        result = ex.finish()
        self.stats.num_events += result.num_events
        self._record_terminal(result)
