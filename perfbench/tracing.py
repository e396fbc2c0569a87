"""Span tracing and exploration probes, applied from outside the program.

Nothing here edits the package under test: every boundary is a
wrapper installed on a public function or method of ``repro`` and
removed again afterwards, so an untraced round runs the original code.

* :class:`ExplorationProbe` is always installed.  It wraps
  ``Explorer.run`` (one call per exploration, never per event) and
  keeps each run's :class:`ExplorationStats` plus its snapshot-tree
  counters, which the deterministic-count gate and the per-layer
  counters read.  It also installs the benchmark meter's ``tick`` as the
  explorer's between-schedules control callback, so long explorations
  recalibrate while they run.
* :class:`Tracer` wraps the layer boundaries listed in
  :data:`CORE_BOUNDARIES` and :data:`LATE_BOUNDARIES` with spans.  Each span adds its duration to its
  boundary's total and to its parent's child time, so a boundary's
  self time is its total minus the time its wrapped children covered.
"""

from __future__ import annotations

import importlib
import time
from contextlib import contextmanager
from typing import Any, Dict, List, Optional, Tuple

#: (span name, module, owner class or None, attribute, note).  The
#: first group is patched before set-up (those modules do not import
#: the suite registry, whose construction set-up times); the second is
#: patched once set-up has imported everything.
CORE_BOUNDARIES: List[Tuple[str, str, Optional[str], str, str]] = [
    ("explore.run", "repro.explore.base", "Explorer", "run",
     "Explorer.run: every explorer's run funnels through the base class"),
    ("runtime.executor_new", "repro.runtime.executor", "Executor",
     "__init__", "Executor() construction, including program instantiation"),
    ("runtime.step", "repro.runtime.executor", "Executor", "step",
     "Executor.step; replay_prefix steps through it too"),
    ("runtime.snapshot", "repro.runtime.executor", "Executor", "snapshot",
     "Executor.snapshot"),
    ("runtime.restore", "repro.runtime.executor", "Executor",
     "from_snapshot", "Executor.from_snapshot (snapshot-tree resume)"),
    ("runtime.finish", "repro.runtime.executor", "Executor", "finish",
     "Executor.finish (trace result and state hash)"),
    ("core.observe", "repro.core.hb", "DualClockEngine", "observe",
     "DualClockEngine.observe (the ref engine); with accel/native the "
     "specialized step loop calls past it, so runtime.step is the "
     "nearest boundary"),
    ("shim.instrument", "repro.shim._instrument", None, "instrument",
     "repro.shim instrument(); cached per function, so set-up pays it"),
    ("check", "repro.check", None, "check", "repro.check()"),
    ("explore.minimize", "repro.check", None, "minimize_schedule",
     "minimize_schedule as bound inside repro.check"),
]

LATE_BOUNDARIES: List[Tuple[str, str, Optional[str], str, str]] = [
    ("campaign.run", "repro.campaign", None, "run_campaign",
     "run_campaign(jobs=1): orchestration around each cell"),
    ("campaign.report", "repro.campaign", None, "campaign_report",
     "campaign_report"),
    ("campaign.report_dict", "repro.campaign.aggregate", "CampaignReport",
     "to_dict", "CampaignReport.to_dict (report serialisation)"),
    ("campaign.figure2", "repro.analysis.runner", None,
     "figure2_rows_from_cells", "figure 2 rows from campaign cells"),
    ("campaign.figure3", "repro.analysis.runner", None,
     "figure3_rows_from_cells", "figure 3 rows from campaign cells"),
    ("analysis.render", "repro.analysis.traceviz", None, "render_timeline",
     "render_timeline (witness timeline text)"),
    ("bench.calibrate", "meter", None, "calibrate",
     "the benchmark's speed calibration; a span only so that the layers "
     "it runs inside do not count it as their own time"),
]


class _Patches:
    """Attribute replacements that can be undone in reverse order."""

    def __init__(self) -> None:
        self._undo: List[Tuple[Any, str, Any]] = []

    def replace(self, owner: Any, attr: str, value: Any) -> None:
        original = owner.__dict__[attr] if isinstance(owner, type) \
            else getattr(owner, attr)
        self._undo.append((owner, attr, original))
        setattr(owner, attr, value)

    def undo(self) -> None:
        while self._undo:
            owner, attr, original = self._undo.pop()
            setattr(owner, attr, original)


def _resolve(module: str, owner: Optional[str]) -> Any:
    mod = importlib.import_module(module)
    return getattr(mod, owner) if owner else mod


class ExplorationProbe:
    """Collects every exploration's statistics and snapshot-tree counters."""

    def __init__(self, control) -> None:
        self.runs: List[Tuple[Any, Optional[Dict[str, Any]]]] = []
        self._control = control
        self._patches = _Patches()

    def install(self) -> None:
        from repro.explore.base import Explorer

        original = Explorer.__dict__["run"]
        runs = self.runs
        control = self._control

        def run(explorer):
            explorer.set_control(control)
            stats = original(explorer)
            tree = explorer.snapshot_tree
            runs.append((stats, tree.stats() if tree is not None else None))
            return stats

        self._patches.replace(Explorer, "run", run)

    def uninstall(self) -> None:
        self._patches.undo()

    def take(self) -> List[Tuple[Any, Optional[Dict[str, Any]]]]:
        runs, self.runs[:] = list(self.runs), []
        return runs


class Tracer:
    """Span timing at layer boundaries: calls, total and self time."""

    def __init__(self) -> None:
        #: span name -> [calls, total seconds, self seconds]
        self.spans: Dict[str, List[float]] = {}
        self.notes: Dict[str, str] = {}
        # each frame accumulates the time its direct child spans took
        self._stack: List[List[float]] = [[0.0]]
        self._patches = _Patches()

    def _stat(self, name: str) -> List[float]:
        stat = self.spans.get(name)
        if stat is None:
            stat = self.spans[name] = [0, 0.0, 0.0]
        return stat

    def _wrap(self, fn, name: str):
        stat = self._stat(name)
        stack = self._stack
        clock = time.perf_counter

        def wrapper(*args, **kwargs):
            parent = stack[-1]
            frame = [0.0]
            stack.append(frame)
            t0 = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                dt = clock() - t0
                stack.pop()
                stat[0] += 1
                stat[1] += dt
                stat[2] += dt - frame[0]
                parent[0] += dt

        wrapper.__wrapped__ = fn
        return wrapper

    def install(self, boundaries) -> None:
        for name, module, owner, attr, note in boundaries:
            target = _resolve(module, owner)
            current = (target.__dict__[attr] if isinstance(target, type)
                       else getattr(target, attr))
            if isinstance(current, classmethod):
                wrapped = classmethod(self._wrap(current.__func__, name))
            else:
                wrapped = self._wrap(current, name)
            self._patches.replace(target, attr, wrapped)
            self.notes[name] = note

    def uninstall(self) -> None:
        self._patches.undo()

    @contextmanager
    def span(self, name: str, note: str = ""):
        """A span around benchmark-side code (set-up phases)."""
        if note:
            self.notes[name] = note
        stat = self._stat(name)
        parent = self._stack[-1]
        frame = [0.0]
        self._stack.append(frame)
        t0 = time.perf_counter()
        try:
            yield
        finally:
            dt = time.perf_counter() - t0
            self._stack.pop()
            stat[0] += 1
            stat[1] += dt
            stat[2] += dt - frame[0]
            parent[0] += dt

    def snapshot(self) -> Dict[str, List[float]]:
        return {k: list(v) for k, v in self.spans.items()}

    def reset(self) -> None:
        for stat in self.spans.values():
            stat[0], stat[1], stat[2] = 0, 0.0, 0.0
