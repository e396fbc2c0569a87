"""The unified exploration kernel: one replay loop, pluggable strategies.

Every DFS-family explorer in the paper's study — plain DFS, preemption
bounding, iterative context bounding, delay bounding, (lazy) HBR
caching — is the same stateless-replay loop differing only in how the
next schedule prefix is chosen.  The kernel owns that loop: replay,
budgets, statistics, pruning, checkpointing; a :class:`Strategy` owns
only the scheduling policy, expressed through three hooks:

* ``initial_items()`` — the roots of the search (usually one empty
  prefix; iterative bounding seeds one root per bound);
* ``expand(enabled, ann)`` — at one scheduling point, pick the default
  choice and enumerate the sibling alternatives (each a serializable
  :class:`~repro.explore.frontier.WorkItem` annotation);
* ``on_step(engine)`` — optional pruning once per prefix, on the
  fingerprints of the prefix's last step (HBR caching returns True on
  a fingerprint-cache hit).

The kernel drives an explicit :class:`~repro.explore.frontier.Frontier`
instead of an implicit Python-local stack of frames.  Popping an item,
placing an executor at its parent and taking its last step, extending
greedily with the strategy's default choices, and pushing each
scheduling point's alternatives in reverse order reproduces
*byte-for-byte* the schedule sequence of a plain recursive depth-first
search (golden-equivalence-tested over the ``small`` suite against the
old frame-based loops, and for HBR caching against a recursive oracle)
— while making the in-progress state serializable:
``snapshot()``/``restore()`` checkpoint and resume an exploration, and
``Frontier.split(k)`` shards one cell across workers.

A step that leaves a state still rooting pending siblings (the default
choice at a point with alternatives, or an item's own step while its
next sibling tops the frontier) is probed *before* it runs, on the
:class:`~repro.runtime.executor.Lookahead` that
:meth:`~repro.runtime.executor.Executor.lookahead` returns: the clock
engine computes the fingerprints the step would leave from its tables,
without forking or stepping.  A hit ends the schedule as pruned with
the executor still at the branch point, held for the next sibling
(:meth:`~repro.explore.base.Explorer._retire`); a miss pushes the
state onto the spine on departure
(:meth:`~repro.explore.base.Explorer._capture`), then steps without
probing again.  Every other step is probed after it runs.  Either way
the strategy sees the same fingerprints in the same order, so
schedules and statistics do not depend on where the probe ran.

See DESIGN.md §3 and §7.3.
"""

from __future__ import annotations

import dataclasses
from typing import Any, Dict, List, Optional, Sequence, Tuple

from .base import ExplorationStats, Explorer
from .frontier import Annotation, Frontier, WorkItem

SNAPSHOT_VERSION = 1


def _child_of(prefix: Tuple[int, ...], parent: Tuple[int, ...]) -> bool:
    """Is ``prefix`` one step below ``parent``?"""
    return len(prefix) == len(parent) + 1 and prefix[:-1] == parent


class Expansion:
    """A strategy's decision at one scheduling point.

    ``chosen`` is the default choice the kernel executes now;
    ``ann_after`` is the path annotation after taking it;
    ``alternatives`` lists the sibling choices *in exploration order*
    (first = explored soonest), each with the annotation its subtree
    starts from.
    """

    __slots__ = ("chosen", "ann_after", "alternatives")

    def __init__(
        self,
        chosen: int,
        ann_after: Annotation,
        alternatives: Sequence[Tuple[int, Annotation]] = (),
    ) -> None:
        self.chosen = chosen
        self.ann_after = ann_after
        self.alternatives = alternatives


class Strategy:
    """Scheduling policy plugged into :class:`KernelExplorer`."""

    #: strategy name; becomes the explorer/stats name
    name = "strategy"

    def bind(self, kernel: "KernelExplorer") -> None:
        """Called once by the kernel before exploration; strategies
        needing the limits or stats keep the reference."""
        self.kernel = kernel

    def initial_items(self) -> List[WorkItem]:
        """Roots of the search, in exploration order."""
        return [WorkItem((), self.initial_annotation())]

    def initial_annotation(self) -> Annotation:
        return {}

    def expand(self, enabled: List[int], ann: Annotation) -> Expansion:
        raise NotImplementedError

    def on_step(self, engine) -> bool:
        """Called once per prefix, with the fingerprints the prefix's
        last step leaves behind when it first executes: each newly
        chosen step, and a non-root work item's own last step, a
        sibling alternative no schedule has run before.  The replayed
        steps before it were seen when first executed.  ``engine`` is
        the executor's clock engine after a real step, or the
        step's :class:`~repro.runtime.executor.Lookahead` when the
        kernel probes before stepping (see the module docstring);
        read only ``hbr_fingerprint()`` and ``lazy_fingerprint()``.
        Return True to prune the schedule here."""
        return False

    def on_schedule_start(self, item: WorkItem) -> None:
        """Called as each work item is popped, before replay."""

    def on_schedule_abort(self) -> None:
        """Called when the kernel abandons an in-flight schedule (the
        mid-schedule wall-clock deadline fired).  The work item is
        re-pushed and re-executed on resume, so strategies with global
        mutable state touched by ``on_step`` (fingerprint caches) must
        roll back this schedule's effects here — otherwise the resumed
        re-execution would see its own stale insertions and prune its
        whole subtree."""

    def finalize(self, stats: ExplorationStats, frontier: Frontier) -> None:
        """Called once after the kernel loop ends (exhaustion or
        limit); may add ``stats.extra`` entries or refine the
        ``exhausted``/``limit_hit`` flags."""

    # -- serialization of global strategy state (caches, counters) ---------
    def state_to_dict(self) -> Dict[str, Any]:
        return {}

    def state_from_dict(self, payload: Dict[str, Any]) -> None:
        pass


class KernelExplorer(Explorer):
    """Explorer driven by a :class:`Frontier` and a :class:`Strategy`.

    The in-progress exploration state is exactly ``(frontier, stats,
    strategy state)`` — all serializable — so the kernel supports:

    * ``snapshot()`` / ``restore()`` — intra-cell checkpoint/resume:
      a restored run continues with the identical remaining schedule
      set (budgets are cumulative: restored ``num_schedules`` and
      ``elapsed`` count against ``max_schedules``/``max_seconds``);
    * ``run_seed(min_items, max_schedules)`` — expand just enough to
      split: explore until the frontier holds at least ``min_items``
      disjoint subtree roots (or the seed budget runs out), leaving
      ``self.frontier`` ready for ``Frontier.split(k)``, whose parts
      ``shard_states(parts)`` turns into ``restore()`` payloads;
    * ``schedule_sink`` — optional list receiving every executed
      schedule (terminal runs in full, pruned runs through their pruned
      step, which may have been probed without ever executing), used
      by the golden-equivalence tests.
    """

    def __init__(self, program, limits=None, strategy: Strategy = None
                 ) -> None:
        if strategy is None:  # pragma: no cover - defensive
            raise ValueError("KernelExplorer requires a strategy")
        super().__init__(program, limits)
        self.strategy = strategy
        self.name = strategy.name
        self.stats.explorer_name = strategy.name
        strategy.bind(self)
        self.frontier = Frontier()
        for item in reversed(strategy.initial_items()):
            self.frontier.push(item)
        self.schedule_sink: Optional[List[List[int]]] = None
        self._seed_target: Optional[int] = None

    # ------------------------------------------------------------------
    def _explore(self) -> None:
        frontier = self.frontier
        strategy = self.strategy
        sink = self.schedule_sink
        capture = self._capture
        # the default (no-op) on_step hook is compiled out
        on_step = (
            strategy.on_step
            if type(strategy).on_step is not Strategy.on_step
            else None
        )
        while frontier:
            # the budget probe runs the control callback first: it may
            # request a stop (honoured by the same probe) or steal
            # frontier items, and a checkpoint taken afterwards must
            # reflect that
            if self._budget_exceeded():
                return  # frontier preserved: snapshot() resumes here
            # checkpoint BEFORE popping: a snapshot must contain the
            # complete remaining frontier, including the item about to
            # be explored (resuming re-executes it)
            self._maybe_checkpoint()
            seeding = self._seed_target is not None
            if seeding:
                if len(frontier) >= self._seed_target:
                    return
                # seed-for-split mode: expand breadth-first so the
                # frontier grows into many similarly-deep subtree
                # roots (LIFO pops would consume it as fast as it
                # grows and leave exponentially skewed shards)
                item = frontier.pop_shallowest()
            else:
                item = frontier.pop()
            strategy.on_schedule_start(item)
            self._schedule_started()
            # place the executor at the item's parent: the held one, or
            # the deepest spine snapshot on its path plus a replay of the
            # rest.  The item's own last step is a sibling alternative
            # no schedule has run, taken below like any new step.
            parent = item.prefix[:-1]
            ex, depth = self._executor_at(parent)
            ex.replay_prefix(parent[depth:])
            prefix: List[int] = list(parent)
            ann = item.annotation
            pruned = held = aborted = False
            # alternatives discovered along this schedule: (depth,
            # alts) collected locally and only published to the
            # frontier once the schedule completes, so a mid-schedule
            # deadline abort leaves the frontier exactly as popped
            discovered: List[Tuple[int, Sequence[Tuple[int, Annotation]]]] \
                = []
            # per-schedule hot loop: bound methods hoisted and the
            # deadline probe compiled out when inert — this loop runs
            # once per scheduling point of every schedule in a campaign
            engine = ex.engine
            lookahead = ex.lookahead
            ex_is_done = ex.is_done
            ex_enabled = ex.enabled
            ex_step = ex.step
            expand = strategy.expand
            prefix_append = prefix.append
            probe_deadline = (
                self._deadline_exceeded_midschedule
                if self._deadline is not None
                or "_deadline_exceeded_midschedule" in self.__dict__
                else None
            )
            # a step leaving a state that roots pending siblings is
            # probed before it runs, on its lookahead: a hit keeps the
            # executor here for the next sibling.  Seed-for-split mode
            # pops breadth-first, so its next item is no sibling.
            peek = on_step is not None and not seeding
            if item.prefix:
                tid = item.prefix[-1]
                # the parent roots pending work while a sibling is next
                # (never in seeding mode: its next item is no sibling)
                roots = not seeding and bool(frontier) and _child_of(
                    frontier.peek().prefix, parent
                )
            else:
                tid = None
            while True:
                if tid is not None:
                    probed = False
                    if roots and peek:
                        after = lookahead(tid)
                        if after is not None:
                            probed = True
                            if on_step(after):
                                prefix_append(tid)
                                pruned = held = True
                                break
                    # snapshot on departure: siblings will resume here
                    if roots:
                        capture(ex)
                    prefix_append(tid)
                    ex_step(tid)
                    if on_step is not None and not probed \
                            and on_step(engine):
                        pruned = True
                        break
                if ex_is_done():
                    break
                if probe_deadline is not None and probe_deadline():
                    aborted = True
                    break
                exp = expand(ex_enabled(), ann)
                ann = exp.ann_after
                tid = exp.chosen
                roots = bool(exp.alternatives)
                if roots:
                    discovered.append((len(prefix), exp.alternatives))
            if aborted:
                # the deadline fired mid-schedule: discard the partial
                # run (it is re-executed on resume), roll back any
                # strategy state it mutated, and push the item back so
                # the frontier stays the exact remaining set
                self.stats.num_schedules -= 1
                strategy.on_schedule_abort()
                frontier.push(item)
                return
            for depth, alts in discovered:
                base = tuple(prefix[:depth])
                for alt, alt_ann in reversed(list(alts)):
                    frontier.push(WorkItem(base + (alt,), alt_ann))
            if pruned:
                # the pruned step counts as executed, whether it ran or
                # was only probed
                self.stats.num_pruned += 1
                self.stats.num_events += len(prefix)
                if sink is not None:
                    sink.append(list(prefix))
            else:
                result = ex.finish()
                self.stats.num_events += result.num_events
                self._record_terminal(result)
                if sink is not None:
                    sink.append(list(result.schedule))
            self._retire(ex, tuple(prefix[:-1]) if held else None)
        self.stats.exhausted = not self.stats.limit_hit

    def run(self) -> ExplorationStats:
        stats = super().run()
        self.strategy.finalize(stats, self.frontier)
        return stats

    # ------------------------------------------------------------------
    def run_seed(self, min_items: int,
                 max_schedules: int = 64) -> ExplorationStats:
        """Explore just enough to shard: stop as soon as the frontier
        holds ``min_items`` items (or the seed budget is consumed, or
        the space is exhausted).  Deterministic; the schedules executed
        here are exactly the first schedules a serial run executes, so
        seed stats merge cleanly with shard stats."""
        self._seed_target = max(1, min_items)
        outer = self.limits
        self.limits = dataclasses.replace(
            outer,
            max_schedules=min(max_schedules, outer.max_schedules),
            max_seconds=None,
        )
        try:
            stats = self.run()
        finally:
            self.limits = outer
            self._seed_target = None
        if self.frontier:
            # stopping early is not a real budget event for the cell
            stats.limit_hit = False
            stats.exhausted = False
        return stats

    # ------------------------------------------------------------------
    def snapshot(self) -> Dict[str, Any]:
        """Serializable in-progress state; valid between schedules."""
        return {
            "version": SNAPSHOT_VERSION,
            "explorer": self.name,
            "program": self.program.name,
            "frontier": self.frontier.to_dict(),
            "stats": self.stats.to_dict(),
            "strategy": self.strategy.state_to_dict(),
        }

    def shard_states(self, parts: Sequence[Frontier]) -> List[Dict[str, Any]]:
        """One :meth:`restore` payload per frontier in ``parts`` (the
        shards of a ``--split-large`` seed or of a work steal), each
        sharing the current strategy state.  The payloads carry no
        statistics: a fresh explorer restoring one starts from zero, so
        a merge counts this explorer's statistics exactly once."""
        strategy_state = self.strategy.state_to_dict()
        return [
            {
                "version": SNAPSHOT_VERSION,
                "explorer": self.name,
                "program": self.program.name,
                "frontier": part.to_dict(),
                "stats": None,
                "strategy": strategy_state,
            }
            for part in parts
        ]

    def restore(self, payload: Dict[str, Any]) -> None:
        """Inverse of :meth:`snapshot`: continue a checkpointed run.

        The restored frontier is the exact remaining schedule set;
        restored statistics (including the fingerprint sets) carry
        over, and the restored ``elapsed``/``num_schedules`` count
        against this run's budgets.
        """
        version = payload.get("version")
        if version != SNAPSHOT_VERSION:
            raise ValueError(f"unsupported snapshot version {version!r}")
        if payload.get("explorer") != self.name:
            raise ValueError(
                f"snapshot of {payload.get('explorer')!r} cannot restore "
                f"a {self.name!r} explorer"
            )
        self.frontier = Frontier.from_dict(payload["frontier"])
        self._restore_stats(payload.get("stats"))
        self.strategy.state_from_dict(payload.get("strategy") or {})
