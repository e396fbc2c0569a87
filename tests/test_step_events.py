"""The executor's one mode: ``Executor.step`` returns the stamped
:class:`~repro.core.events.Event` and the executor keeps no trace.

Every explorer steps through that one path, and the callers that read
events keep their own: DPOR keeps one trace for the current run and
cuts it back to the depth each spine restore starts from, and
``find_races`` reads that trace.  These tests check both halves:

* every explorer, on two suite programs (one with virtual time, so
  TIME_FIRE events take their own path), gets an :class:`Event` back
  from every ``step`` call, indexed by its schedule position;
* ``find_races`` reports the same races, witnesses and schedule counts
  with branch-point capture on and off, on suite programs whose DPOR
  runs restore past the initial state.
"""

import pytest

from repro.analysis.races import find_races
from repro.core.events import Event, OpKind
from repro.explore import ExplorationLimits
from repro.explore.controller import STANDARD_EXPLORERS, make_explorer
from repro.runtime.executor import Executor
from repro.suite import REGISTRY

from reference_replay import capture_off


@pytest.mark.parametrize("name", sorted(STANDARD_EXPLORERS))
def test_every_step_returns_its_event(name, monkeypatch):
    step = Executor.step
    stepped = []

    def checked_step(self, tid):
        position = len(self.schedule)
        event = step(self, tid)
        assert isinstance(event, Event), (name, self.schedule)
        assert (event.index, event.tid) == (position, tid)
        stepped.append(event)
        return event

    monkeypatch.setattr(Executor, "step", checked_step)
    for bid in (24, 89):  # condvar bounded buffer; timed lease expiry
        limits = ExplorationLimits(max_schedules=40)
        make_explorer(name, REGISTRY[bid].program, limits).run()
    assert any(e.kind is OpKind.TIME_FIRE for e in stepped)


def _races(bid):
    report = find_races(REGISTRY[bid].program,
                        ExplorationLimits(max_schedules=300))
    return (report.races, report.witness, report.schedules_explored,
            report.exhausted)


@pytest.mark.parametrize("bid", (3, 47, 50, 67, 89, 93))
def test_find_races_same_across_restores(bid):
    program = REGISTRY[bid].program
    dpor = make_explorer("dpor", program, ExplorationLimits(max_schedules=300))
    dpor.run()
    assert dpor.snapshot_tree.hits > 0  # restores start past depth 0
    on = _races(bid)
    with capture_off():
        off = _races(bid)
    assert on == off
    assert on[0], "expected the program to race"
