"""Dynamic partial-order reduction (Flanagan & Godefroid, POPL 2005).

Stateless DPOR with clock vectors and (optional) sleep sets:

* at every state along the current execution, every thread's *pending*
  operation is tested against the most recent conflicting,
  possibly-co-enabled event in the trace that does not already
  happen-before the thread; a backtrack point is registered at the
  state from which that event was executed (this pending-op formulation
  also catches races with currently *disabled* operations such as
  blocked lock acquisitions — essential for lock-heavy programs);
* sleep sets suppress re-exploration of independent siblings.

Race detection uses the **regular** happens-before relation — by the
paper's Section 4, the lazy HBR cannot simply replace it here because
not all linearizations of a lazy HBR are feasible.  (The prototype that
*adds* lazy-HBR pruning on top lives in
:mod:`repro.explore.lazy_dpor`.)

The per-state work is proportional to what changed since the previous
state (DESIGN.md §14):

* **Delta.**  Between two analysed states exactly one event is
  appended, and a thread's regular clock only changes when that thread
  executes.  So a thread that did not execute the newest event and
  still has the same :class:`~repro.runtime.trace.PendingInfo` object
  can only gain one race: with the newest event.  Only the thread that
  stepped, threads with a new pending op, and every thread at the
  first analysed state of a run get a full scan.
* **Ahead of the step.**  When the stepping thread's record is its
  event's label (:meth:`Executor.label_ahead`: no SPAWN, JOIN or
  timed op) and the step gives no other thread a new op (no NOTIFY or
  NOTIFY_ALL, ``KindSpec.gives_ops``), that delta test runs before
  the step, against the record.  A race it finds registers at the
  state being left, which is then captured as the step departs, so a
  backtrack there replays one step.  After such a step only the
  thread that moved is analysed.
* **Early exit.**  A full scan walks the trace per memory location,
  newest first, and stops a location's list at the first modification
  of that location that already happens before the pending op: the
  engine joins every earlier access there into that modification's
  clock, so none of them can race either.
"""

from __future__ import annotations

from typing import Any, Dict, List, Optional, Set, Tuple

from ..core.events import Event, GIVES_OPS, IS_MODIFYING
from ..core.dependence import conflicts, may_be_coenabled
from ..runtime.executor import Executor
from ..runtime.trace import PendingInfo
from .base import Explorer
from .frontier import Frontier, WorkItem

DPOR_SNAPSHOT_VERSION = 1


class _Node:
    """One scheduling point on the DPOR stack."""

    __slots__ = ("enabled", "chosen", "backtrack", "done", "sleep",
                 "want_snap")

    def __init__(self, enabled: List[int], sleep: Set[int]) -> None:
        #: the enabled tids, sorted; short, so the race analysis tests
        #: membership on the list itself
        self.enabled = enabled
        self.chosen = -1
        self.backtrack: Set[int] = set()
        self.done: Set[int] = set()
        self.sleep: Set[int] = sleep
        #: race analysis registered a backtrack candidate here, so this
        #: state WILL be re-explored: the test ahead of this node's step
        #: captures it on departure (_run_one), and a full scan of a
        #: later state, which finds it left, has it captured on the
        #: next replay pass through this depth (_replay_stack)
        self.want_snap = False


class DPORExplorer(Explorer):
    """Flanagan–Godefroid DPOR with clock vectors and sleep sets."""

    name = "dpor"

    def __init__(self, program, limits=None, sleep_sets: bool = True) -> None:
        super().__init__(program, limits)
        self.sleep_sets = sleep_sets
        if not sleep_sets:
            self.stats.explorer_name = self.name = "dpor-nosleep"
        #: the DPOR stack, kept on the instance so in-progress
        #: exploration state can be snapshot/restored between schedules
        self._stack: List[_Node] = []
        self._started = False
        #: the stamped events of the current run, which the race
        #: analysis walks: every step DPOR takes appends its event, and
        #: :meth:`_replay_stack` keeps the restored prefix's part
        self._trace: List[Event] = []
        #: the trace positions of every location (an event's ``(oid,
        #: key)``, and ``(released oid, None)``), ascending: the index
        #: of ``_trace``, cut back with it by :meth:`_replay_stack`
        self._loc_index: Dict[Tuple[int, object], List[int]] = {}

    # ------------------------------------------------------------------
    def _explore(self) -> None:
        stack = self._stack
        first = not self._started
        while first or stack:
            first = False
            self._started = True
            if self._budget_exceeded():
                return
            self._maybe_checkpoint()
            self._schedule_started()
            pruned = self._run_one(stack)
            if pruned is None:
                # the wall-clock deadline fired mid-schedule
                # (``limit_hit`` is already set): discard the partial
                # run — a resumed exploration re-executes it
                self.stats.num_schedules -= 1
                return
            if pruned:
                self.stats.num_pruned += 1
            # backtrack: deepest node with an unexplored candidate.
            # ``done`` is a subset of ``backtrack``, so equal sizes mean
            # nothing is left without taking a set difference
            while stack:
                node = stack[-1]
                if len(node.backtrack) != len(node.done):
                    cand = node.backtrack - node.done - node.sleep
                    if cand:
                        prev = node.chosen
                        if self.sleep_sets and prev >= 0:
                            node.sleep.add(prev)
                        q = min(cand)
                        node.chosen = q
                        node.done.add(q)
                        break
                stack.pop()
            if not stack:
                self.stats.exhausted = not self.stats.limit_hit
                return

    # ------------------------------------------------------------------
    def _replay_stack(
        self, stack: List[_Node]
    ) -> Tuple[Executor, Dict[Tuple[int, object], List[int]]]:
        """Reconstruct the state after the stack's chosen prefix, plus
        the per-location index of trace positions for fast race lookup.

        Resumes from the deepest spine snapshot on the stack's prefix
        (see :meth:`Explorer._executor_at`).  Every spine entry is a
        prefix of the last run, so that run's first ``start`` events are
        the restored prefix's: the trace is cut back to them, each cut
        event's entries leave the per-location index (the tails of
        their ascending lists, so the work is the cut's length, not the
        prefix's), and the rest of the prefix is replayed stepwise.
        A node's snapshot is its *pre*-state, the choices of the nodes
        above it, so re-choosing a node's ``chosen`` during
        backtracking keeps its own snapshot and drops only the deeper
        ones, which no longer lie on the prefix."""
        ex, start = self._executor_at(tuple(node.chosen for node in stack))
        trace = self._trace
        loc_index = self._loc_index
        for event in trace[start:]:
            if event.oid >= 0:
                loc_index[(event.oid, event.key)].pop()
            if event.released_mutex_oid is not None:
                loc_index[(event.released_mutex_oid, None)].pop()
        del trace[start:]
        for node in stack[start:]:
            if node.want_snap:
                # a full scan registered a backtrack candidate here
                # after the run had left this state, so its pre-state
                # roots a future re-exploration: snapshot it now that a
                # replay is passing through anyway.  Candidates the
                # test ahead of a step registers are captured on
                # departure instead (_run_one); eager snapshots of
                # every node were measured to cost more than the
                # replays they save (DPOR's backtrack sets are sparse).
                node.want_snap = False
                self._capture(ex)
            event = ex.step(node.chosen)
            trace.append(event)
            self._index_event(loc_index, event)
        return ex, loc_index

    # ------------------------------------------------------------------
    def _run_one(self, stack: List[_Node]) -> Optional[bool]:
        """Replay the stack prefix, then extend to a terminal (or
        pruned) state, updating backtrack sets.  Returns True if the
        run was pruned (by sleep sets, or by :meth:`_prune_after_step`),
        None if the wall-clock deadline fired mid-schedule (the stack
        stays valid: every appended node was fully race-analysed before
        its step ran, so a resumed run replays the prefix and picks up
        exactly at the first unanalysed state)."""
        ex, loc_index = self._replay_stack(stack)
        # _replay_stack leaves one trace event per stack node, and every
        # step below appends one node and one event: each state this
        # loop reaches is new, and is analysed before it is left
        trace = self._trace
        trace_append = trace.append
        stack_append = stack.append
        setdefault = loc_index.setdefault
        update_backtracks = self._update_backtracks
        race_ahead = self._race_ahead
        capture = self._capture
        ex_enabled = ex.enabled
        ex_step = ex.step
        label_ahead = ex.label_ahead
        max_events = ex.max_events
        # the deadline probe and the post-step hook are compiled out
        # when inert (no deadline, no override on the class or the
        # instance), as in the kernel loop
        probe_deadline = (
            self._deadline_exceeded_midschedule
            if self._deadline is not None
            or "_deadline_exceeded_midschedule" in self.__dict__
            else None
        )
        prune_after_step = (
            self._prune_after_step
            if type(self)._prune_after_step
            is not DPORExplorer._prune_after_step
            or "_prune_after_step" in self.__dict__
            else None
        )
        # pending ops analysed at the previous state of this run, by
        # tid: the delta of _update_backtracks (empty = full scans)
        analysed: Dict[int, PendingInfo] = {}
        # the last step was race-tested before it ran and gave no other
        # thread a new op: only its own thread has a new one to analyse
        moved = False

        while True:
            if probe_deadline is not None and probe_deadline():
                return None
            enabled = ex_enabled()
            if not enabled or len(trace) >= max_events:
                # the run is over; finish() records a deadlock or the
                # truncation (Executor.is_done)
                result = ex.finish()
                self.stats.num_events += result.num_events
                update_backtracks(ex, stack, loc_index, analysed, moved)
                self._record_terminal(result)
                self._retire(ex)
                return False
            analysed = update_backtracks(ex, stack, loc_index, analysed,
                                         moved)
            if stack and stack[-1].sleep:
                sleep = self._child_sleep(stack, ex)
                for choice in enabled:
                    if choice not in sleep:
                        break
                else:
                    # every enabled thread is redundant here: the
                    # continuation is covered by an earlier branch
                    self._retire(ex)
                    return True
            else:
                sleep = set()
                choice = enabled[0]
            node = _Node(enabled, sleep)
            node.backtrack.add(choice)
            node.chosen = choice
            node.done.add(choice)
            stack_append(node)
            mine = label_ahead(choice)
            moved = mine is not None and not GIVES_OPS[mine.kind]
            if moved:
                # the next state's delta test, run before the step
                # (DESIGN §14.2): a race it registers makes this state
                # a branch point, captured as the step departs
                race_ahead(node, mine, analysed)
                if node.want_snap:
                    node.want_snap = False
                    capture(ex)
            event = ex_step(choice)
            trace_append(event)
            # _index_event, inlined
            if event.oid >= 0:
                setdefault((event.oid, event.key), []).append(event.index)
            if event.released_mutex_oid is not None:
                setdefault((event.released_mutex_oid, None),
                           []).append(event.index)
            if prune_after_step is not None and prune_after_step(ex):
                # a pruned run analyses no state past this step: take
                # back what the test ahead of the step registered
                node.backtrack = {choice}
                self._retire(ex)
                return True

    def _prune_after_step(self, ex: Executor) -> bool:
        """Post-step hook: True abandons the run as pruned (plain DPOR
        never does; lazy-DPOR probes its fingerprint cache here).  Not
        called for the steps :meth:`_replay_stack` replays, the step a
        backtrack newly chose included (see
        :mod:`repro.explore.lazy_dpor`)."""
        return False

    # ------------------------------------------------------------------
    # The frontier/work-item interface.  DPOR keeps its bespoke loop —
    # backtrack sets are updated *dynamically* by race analysis, so a
    # static Frontier.split would be unsound — but its backtrack points
    # serialize as the same WorkItem currency the kernel uses: stack
    # node i becomes a work item whose prefix is the schedule through
    # that node and whose annotation carries the node's backtrack/
    # done/sleep sets.  That buys intra-cell checkpoint/resume for
    # DPOR cells, in the same snapshot format the campaign store
    # threads around.
    # ------------------------------------------------------------------
    def to_work_items(self) -> Frontier:
        """The current stack as a frontier of serializable work items
        (bottom-to-top; only meaningful between schedules)."""
        frontier = Frontier()
        prefix: List[int] = []
        for node in self._stack:
            prefix.append(node.chosen)
            frontier.push(WorkItem(tuple(prefix), {
                "enabled": list(node.enabled),
                "chosen": node.chosen,
                "backtrack": sorted(node.backtrack),
                "done": sorted(node.done),
                "sleep": sorted(node.sleep),
            }))
        return frontier

    def _load_work_items(self, frontier: Frontier) -> None:
        self._stack = []
        for item in frontier:
            ann = item.annotation
            node = _Node(list(ann["enabled"]), set(ann["sleep"]))
            node.chosen = ann["chosen"]
            node.backtrack = set(ann["backtrack"])
            node.done = set(ann["done"])
            self._stack.append(node)

    def _aux_state_to_dict(self) -> Dict[str, Any]:
        """Extra serializable state; the lazy variant adds its cache."""
        return {}

    def _aux_state_from_dict(self, payload: Dict[str, Any]) -> None:
        pass

    def snapshot(self) -> Dict[str, Any]:
        """Serializable in-progress state; valid between schedules."""
        return {
            "version": DPOR_SNAPSHOT_VERSION,
            "kind": "dpor",
            "explorer": self.name,
            "program": self.program.name,
            "frontier": self.to_work_items().to_dict(),
            "stats": self.stats.to_dict(),
            "aux": self._aux_state_to_dict(),
        }

    def restore(self, payload: Dict[str, Any]) -> None:
        """Inverse of :meth:`snapshot`: continue a checkpointed run."""
        version = payload.get("version")
        if version != DPOR_SNAPSHOT_VERSION or payload.get("kind") != "dpor":
            raise ValueError(
                f"unsupported DPOR snapshot (version={version!r}, "
                f"kind={payload.get('kind')!r})"
            )
        if payload.get("explorer") != self.name:
            raise ValueError(
                f"snapshot of {payload.get('explorer')!r} cannot restore "
                f"a {self.name!r} explorer"
            )
        self._load_work_items(Frontier.from_dict(payload["frontier"]))
        self._started = True
        self._restore_stats(payload.get("stats"))
        self._aux_state_from_dict(payload.get("aux") or {})

    # ------------------------------------------------------------------
    def _child_sleep(self, stack: List[_Node], ex: Executor) -> Set[int]:
        """Sleep set inherited by the state just reached: parents'
        sleepers whose pending ops are independent of the executed
        event survive."""
        if not self.sleep_sets or not stack:
            return set()
        parent = stack[-1]
        if not parent.sleep:
            return set()
        last_event = self._trace[-1]
        survivors: Set[int] = set()
        for tid in parent.sleep:
            info = ex.pending_info(tid)
            if info is None:
                continue
            if not conflicts(info, last_event):
                survivors.add(tid)
        return survivors

    # ------------------------------------------------------------------
    @staticmethod
    def _index_event(
        loc_index: Dict[Tuple[int, object], List[int]],
        event: Event,
    ) -> None:
        if event.oid >= 0:
            loc_index.setdefault((event.oid, event.key), []).append(event.index)
        if event.released_mutex_oid is not None:
            loc_index.setdefault(
                (event.released_mutex_oid, None), []
            ).append(event.index)

    def _update_backtracks(
        self,
        ex: Executor,
        stack: List[_Node],
        loc_index: Dict[Tuple[int, object], List[int]],
        analysed: Dict[int, PendingInfo],
        moved: bool,
    ) -> Dict[int, PendingInfo]:
        """F–G race analysis: for every pending operation, find the
        latest conflicting, possibly-co-enabled, HB-unordered event and
        register a backtrack point before it.

        ``analysed`` holds the pending ops analysed at the previous
        state, which is exactly one event older (empty at the first
        analysed state of a run).  A thread that did not execute the
        newest event and still has the same ``PendingInfo`` object
        kept its op and its clock, so its latest race is either the one
        already registered there (re-registering is a no-op) or the
        newest event: only that one pair is tested.  ``moved`` says
        that pair test already ran, before the newest step
        (:meth:`_race_ahead`), and that the step gave no other thread
        a new op: only the thread that stepped is analysed, and the
        map is updated in place.  Returns the map for the next
        state."""
        trace = self._trace
        n = len(trace)
        if moved:
            now = analysed
            mover = trace[-1].tid
            now.pop(mover, None)
            info = ex.pending_info(mover)
            infos = () if info is None else (info,)
            newest = None
        else:
            now = {}
            infos = ex.all_pending_infos()
            newest = trace[-1] if analysed else None
            mover = newest.tid if newest is not None else -1
        clock_of = ex.engine.thread_clock_raw
        for info in infos:
            if info.oid < 0 and info.released_mutex_oid is None:
                continue
            tid = info.tid
            now[tid] = info
            if newest is not None and tid != mover \
                    and analysed.get(tid) is info:
                # The newest event is another thread's fresh tick, which
                # this thread's unchanged clock cannot have seen, so it
                # never happens-before the pending op: it races iff it
                # conflicts and may be co-enabled.  With i = n - 1 the
                # E scan below is empty: E is the thread itself, if it
                # was enabled there.
                if conflicts(newest, info) and \
                        may_be_coenabled(newest, info):
                    node = stack[n - 1]
                    self._add_backtrack(
                        node, {tid} if tid in node.enabled else set()
                    )
                continue
            # the conflict predicates duck-type over the PendingInfo;
            # no throwaway Event allocation per pending op
            cv = clock_of(tid)  # regular clock of tid
            i = self._latest_race(trace, loc_index, info, cv)
            if i is None or i >= len(stack):
                continue
            node = stack[i]
            # E: threads that could get the pending op (or something
            # happening-before it) running at the pre-state of event i
            enabled_at_i = node.enabled
            E: Set[int] = set()
            if tid in enabled_at_i:
                E.add(tid)
            for j in range(i + 1, n):
                e_j = trace[j]
                if e_j.tid in enabled_at_i and self._hb_pending(e_j, cv):
                    E.add(e_j.tid)
            self._add_backtrack(node, E)
        return now

    def _race_ahead(self, node: _Node, mine: PendingInfo,
                    analysed: Dict[int, PendingInfo]) -> None:
        """The delta test of the state ``node``'s step will reach, run
        before the step.  ``mine`` is the stepping thread's record,
        which labels its event exactly (:meth:`Executor.label_ahead`),
        and a step of a kind that gives no other thread a new op
        (``KindSpec.gives_ops``) leaves every other thread analysed at
        ``node``'s state its op and its clock.  So each of them gets
        here the one pair test the next state would give it, and a
        race registers at ``node``, as it would from there."""
        p = mine.tid
        oid = mine.oid
        released = mine.released_mutex_oid
        enabled = node.enabled
        for tid, info in analysed.items():
            if info.oid != oid and released is None \
                    and info.released_mutex_oid is None:
                continue  # no common location: conflicts() is False
            if tid != p and conflicts(mine, info) \
                    and may_be_coenabled(mine, info):
                self._add_backtrack(
                    node, {tid} if tid in enabled else set()
                )

    @staticmethod
    def _add_backtrack(node: _Node, E: Set[int]) -> None:
        """Register a race at ``node``: one thread of ``E`` unless one
        is already there, or every enabled thread when ``E`` is empty.
        Idempotent, so a race registered again changes nothing."""
        if E:
            if not (E & (node.backtrack | node.done)):
                node.backtrack.add(min(E))
                node.want_snap = True
        else:
            before = len(node.backtrack)
            node.backtrack.update(node.enabled)
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
        mutex = pend.released_mutex_oid
        a = loc_index.get((pend.oid, pend.key)) if pend.oid >= 0 else None
        b = loc_index.get((mutex, None)) if mutex is not None else None
        ia = len(a) - 1 if a is not None else -1
        ib = len(b) - 1 if b is not None else -1
        ncv = len(cv)
        while ia >= 0 or ib >= 0:
            va = a[ia] if ia >= 0 else -1
            vb = b[ib] if ib >= 0 else -1
            if va >= vb:
                i = va
                in_a = True
                in_b = vb == va  # same event under both locations
                ia -= 1
                if in_b:
                    ib -= 1
            else:
                i = vb
                in_a = False
                in_b = True
                ib -= 1
            e = trace[i]
            etid = e.tid
            if etid < ncv and e.clock[etid] <= cv[etid]:
                # e happens before the pending op (always so for the
                # pending thread's own events): no race.  If e also
                # modifies the list's location, the engine joined every
                # earlier access there into e's clock, so they all
                # happen before the pending op too: that list is done.
                # An entry indexed under a released oid (WAIT,
                # TIME_FIRE: modifying kinds) counts as a modification
                # there as well, because observe publishes it as one.
                if IS_MODIFYING[e.kind]:
                    if in_a:
                        ia = -1
                    if in_b:
                        ib = -1
                continue
            if not conflicts(e, pend):
                continue
            if not may_be_coenabled(e, pend):
                continue
            return i
        return None

    @staticmethod
    def _hb_pending(e: Event, cv) -> bool:
        """Does event ``e`` happen-before the pending op of the thread
        whose current regular clock is ``cv``?  ``cv`` may be a raw
        list clock or a :class:`VectorClock`; entries past its length
        are zero, and every stamped clock has ``clock[tid] >= 1``."""
        etid = e.tid
        return etid < len(cv) and e.clock[etid] <= cv[etid]
