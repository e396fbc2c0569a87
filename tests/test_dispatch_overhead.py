"""Dispatch-overhead regression pins for the replay hot path.

Every engine replays through one step loop: the generic
:meth:`~repro.runtime.executor.Executor.step`, which calls the clock
engine's ``observe`` once per event.  The replay-path work around it
(the compiled clock kernel, op-stream memoisation, restore templates)
is about removing Python-level dispatch from that per-event path.
These tests pin both properties so neither can silently regress:

* a reference dfs cell is explored under ``cProfile`` (which counts
  every Python-level call through the same hook family as
  ``sys.setprofile``) and the number of primitive calls per replayed
  event must stay under a fixed ceiling;
* a class-level wrapper on ``Executor.step`` — the boundary the
  repository benchmark's tracer instruments — must see exactly one
  call per stepped event on every available engine, so no engine can
  slip past it with a per-instance step loop of its own;
* (lazy) HBR caching probes steps before running them, on lookaheads
  that read the clock tables: the engine's ``observe`` runs exactly
  once per executed step, and every engine fork belongs to a snapshot
  or a restore, so no peek forks or observes.

The ceiling is deliberately generous (~40% headroom over the measured
value) so it only trips on structural regressions — a new per-event
Python callback, an accidentally disabled fast path — not on noise.
Call counts, unlike wall-clock time, are machine-independent, which
is what makes this pin viable in CI.
"""

import cProfile
import pstats
from collections import Counter

import pytest

from repro.core.engines import (
    available_backends,
    create_clock_engine,
    native_compiled,
)
from repro.explore.base import ExplorationLimits
from repro.explore.controller import make_explorer
from repro.runtime.executor import Executor
from repro.suite import REGISTRY

from reference_replay import capture_off

#: calls/event ceilings per backend, measured at ~24.3 (ref) and
#: ~20.5 (native) with the single generic step loop
CALLS_PER_EVENT_CEILING = {"ref": 35.0, "native": 30.0}

#: the reference cell: small enough to explore exhaustively in
#: milliseconds, hot enough that per-event costs dominate
PROGRAM = "racy_counter_t3_k1"
MAX_SCHEDULES = 500


def _program():
    return {b.name: b for b in REGISTRY.values()}[PROGRAM].program


def _calls_per_event(engine: str) -> float:
    explorer = make_explorer(
        "dfs", _program(), ExplorationLimits(max_schedules=MAX_SCHEDULES),
        engine=engine,
    )
    profile = cProfile.Profile()
    profile.enable()
    stats = explorer.run()
    profile.disable()
    assert stats.num_events > 0
    prim_calls = pstats.Stats(profile).prim_calls
    return prim_calls / stats.num_events


def test_ref_engine_dispatch_overhead_pinned():
    ratio = _calls_per_event("ref")
    assert ratio <= CALLS_PER_EVENT_CEILING["ref"], (
        f"replay dispatch overhead regressed: {ratio:.1f} Python-level "
        f"calls per replayed event on the reference dfs cell "
        f"(ceiling {CALLS_PER_EVENT_CEILING['ref']})"
    )


@pytest.mark.skipif(not native_compiled(),
                    reason="native extension not compiled")
def test_native_engine_dispatch_overhead_pinned():
    ratio = _calls_per_event("native")
    assert ratio <= CALLS_PER_EVENT_CEILING["native"], (
        f"native replay dispatch overhead regressed: {ratio:.1f} "
        f"Python-level calls per replayed event "
        f"(ceiling {CALLS_PER_EVENT_CEILING['native']})"
    )


@pytest.mark.skipif(not native_compiled(),
                    reason="native extension not compiled")
def test_native_dispatches_less_than_ref():
    # the compiled engine must actually remove Python-level work from
    # the hot loop, not just shuffle it around
    assert _calls_per_event("native") < _calls_per_event("ref")


@pytest.mark.parametrize("engine", available_backends())
def test_one_step_loop_drives_every_engine(engine, monkeypatch):
    calls = []
    step = Executor.step

    def counting_step(self, *args, **kwargs):
        calls.append(None)
        return step(self, *args, **kwargs)

    monkeypatch.setattr(Executor, "step", counting_step)
    # branch-point capture off: every counted event is stepped, none
    # resumed
    limits = ExplorationLimits(max_schedules=MAX_SCHEDULES)
    with capture_off():
        stats = make_explorer("dfs", _program(), limits,
                              engine=engine).run()
    assert stats.num_events > 0
    assert len(calls) == stats.num_events, (
        f"{engine}: {len(calls)} Executor.step calls for "
        f"{stats.num_events} stepped events"
    )


def _count_calls(monkeypatch, counts, owner, name):
    """Count calls of ``owner.name`` (a plain or class method)."""
    attr = owner.__dict__.get(name)
    if isinstance(attr, classmethod):
        original = attr.__func__

        def counting(cls, *args, **kwargs):
            counts[name] += 1
            return original(cls, *args, **kwargs)

        monkeypatch.setattr(owner, name, classmethod(counting))
        return
    original = getattr(owner, name)

    def counting(self, *args, **kwargs):
        counts[name] += 1
        return original(self, *args, **kwargs)

    monkeypatch.setattr(owner, name, counting)


@pytest.mark.parametrize("engine", available_backends())
@pytest.mark.parametrize("explorer", ["hbr-caching", "lazy-hbr-caching"])
def test_caching_peeks_neither_fork_nor_observe(engine, explorer,
                                                monkeypatch):
    counts: Counter = Counter()
    engine_cls = type(create_clock_engine(engine))
    for name in ("observe", "fork"):
        _count_calls(monkeypatch, counts, engine_cls, name)
    for name in ("step", "snapshot", "from_snapshot", "lookahead"):
        _count_calls(monkeypatch, counts, Executor, name)
    limits = ExplorationLimits(max_schedules=MAX_SCHEDULES)
    stats = make_explorer(explorer, _program(), limits, engine=engine).run()
    # the peeks ran, and some pruned a step before it executed
    assert counts["lookahead"] > 0 and stats.num_pruned > 0, counts
    assert counts["observe"] == counts["step"], counts
    assert counts["fork"] == counts["snapshot"] + counts["from_snapshot"], \
        counts
