"""Golden equivalence: shim frontend vs hand-built DSL twins.

Every fixture in :mod:`repro.suite.shim_twins` is the same concurrent
program authored twice.  The two sides must be *byte-identical* to every
observer: single-execution event streams, fingerprints and state
hashes, and — per explorer — schedule counts, fingerprint sets and
error findings.  This pins the entire shim pipeline (oid assignment,
instrumentation-generated op streams, crash wrapping) against the DSL
semantics the paper reproduction is built on.

A hypothesis harness then does the same soundness check on random small
shim programs: whatever bugs/states exhaustive DFS finds, DPOR must
find exactly.
"""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import repro
from repro.explore.base import ExplorationLimits
from repro.explore.controller import run_single
from repro.shim import program_from_function
from repro.shim import threading as shim_threading
from repro.suite.shim_twins import (
    _explorer_signature,
    _single_run_signature,
    equivalence_report,
    make_twins,
)

TWINS = make_twins()
LIM = ExplorationLimits(max_schedules=3000)

EXPLORERS = ("dfs", "dpor", "pct")


@pytest.mark.parametrize("pair", TWINS, ids=[p.name for p in TWINS])
def test_single_run_byte_identical(pair):
    shim_sig = _single_run_signature(pair.shim)
    dsl_sig = _single_run_signature(pair.dsl)
    assert shim_sig == dsl_sig


@pytest.mark.parametrize("explorer", EXPLORERS)
@pytest.mark.parametrize("pair", TWINS, ids=[p.name for p in TWINS])
def test_exploration_byte_identical(pair, explorer):
    shim_sig = _explorer_signature(pair.shim, explorer, LIM)
    dsl_sig = _explorer_signature(pair.dsl, explorer, LIM)
    assert shim_sig == dsl_sig


@pytest.mark.parametrize("pair", TWINS, ids=[p.name for p in TWINS])
def test_expected_error_kinds(pair):
    sig = _explorer_signature(pair.shim, "dfs", LIM)
    if pair.expect_error is None:
        assert sig["error_kinds"] == []
    else:
        assert sig["error_kinds"] == [pair.expect_error]


def test_equivalence_report_shape():
    report = equivalence_report(ExplorationLimits(max_schedules=500),
                                explorers=("dpor",))
    assert report["kind"] == "repro-shim-equivalence"
    assert report["all_equal"] is True
    assert set(report["pairs"]) == {p.name for p in TWINS}
    import json
    json.dumps(report)  # must be a JSON-able artifact


# ---------------------------------------------------------------------------
# the same twin identity, per clock-engine backend
# ---------------------------------------------------------------------------
#
# The shim pipeline must stay byte-identical to its DSL twin no matter
# which backend replays it, and each twin's exploration signature must
# itself be backend-invariant.  ``native`` only runs where the compiled
# artifact exists (the same machines the `auto` policy would select it
# on).

from repro.core.engines import available_backends  # noqa: E402
from repro.runtime.executor import Executor  # noqa: E402
from repro.runtime.schedule import execute  # noqa: E402

ENGINES = available_backends()
ENGINE_LIM = ExplorationLimits(max_schedules=600)


@pytest.mark.parametrize("engine", ENGINES)
@pytest.mark.parametrize("pair", TWINS, ids=[p.name for p in TWINS])
def test_twins_byte_identical_per_engine(pair, engine, monkeypatch):
    monkeypatch.setenv("REPRO_ENGINE", engine)
    shim_sig = _explorer_signature(pair.shim, "dfs", ENGINE_LIM)
    dsl_sig = _explorer_signature(pair.dsl, "dfs", ENGINE_LIM)
    assert shim_sig == dsl_sig


@pytest.mark.parametrize("pair", TWINS, ids=[p.name for p in TWINS])
def test_twin_signature_engine_invariant(pair, monkeypatch):
    sigs = {}
    for engine in ENGINES:
        monkeypatch.setenv("REPRO_ENGINE", engine)
        sigs[engine] = _explorer_signature(pair.shim, "dpor", ENGINE_LIM)
    base = sigs["ref"]
    for engine, sig in sigs.items():
        assert sig == base, f"engine {engine} diverges from ref"


@pytest.mark.parametrize("engine", ENGINES)
@pytest.mark.parametrize("pair", TWINS, ids=[p.name for p in TWINS])
def test_twin_mid_schedule_snapshot_round_trip(pair, engine, monkeypatch):
    """Snapshot a shim twin mid-schedule on each backend and finish it
    from the restore: the restored run must be indistinguishable from
    the uninterrupted one — same fingerprints, state hash, error."""
    monkeypatch.setenv("REPRO_ENGINE", engine)
    full = execute(pair.shim)
    sched = list(full.schedule)
    cut = len(sched) // 2

    ex = Executor(pair.shim)
    ex.replay_prefix(sched[:cut])
    restored = Executor.from_snapshot(ex.snapshot())
    assert restored.engine.backend == ex.engine.backend
    for tid in sched[cut:]:
        assert restored.enabled() == ex.enabled()
        restored.step(tid)
        ex.step(tid)
    ra, rb = restored.finish(), ex.finish()
    assert (ra.hbr_fp, ra.lazy_fp, ra.state_hash, ra.num_events) == \
           (rb.hbr_fp, rb.lazy_fp, rb.state_hash, rb.num_events)
    assert ra.hbr_fp == full.hbr_fp
    assert ra.state_hash == full.state_hash
    assert type(ra.error).__name__ == type(rb.error).__name__


# ---------------------------------------------------------------------------
# randomized soundness: DFS-exhaustive == DPOR on small shim programs
# ---------------------------------------------------------------------------

@repro.shared
class _Shared:
    def __init__(self):
        self.a = 0
        self.b = 0


def _scripted_main(script1, script2):
    s = _Shared()
    lock = shim_threading.Lock()
    ev = shim_threading.Event()

    def worker(script):
        for step in script:
            if step == "inc_a":
                s.a += 1
            elif step == "write_a":
                s.a = 7
            elif step == "read_a":
                _ = s.a
            elif step == "locked_inc_b":
                with lock:
                    s.b += 1
            elif step == "event_set":
                ev.set()
            elif step == "assert_b_small":
                assert s.b <= 2, s.b

    t1 = shim_threading.Thread(target=worker, args=(script1,))
    t2 = shim_threading.Thread(target=worker, args=(script2,))
    t1.start()
    t2.start()
    t1.join()
    t2.join()


STEP = st.sampled_from(
    ["inc_a", "write_a", "read_a", "locked_inc_b", "event_set",
     "assert_b_small"]
)
SCRIPT = st.lists(STEP, max_size=3)


@settings(max_examples=25, deadline=None, derandomize=True)
@given(script1=SCRIPT, script2=SCRIPT)
def test_random_shim_programs_dpor_sound(script1, script2):
    program = program_from_function(
        _scripted_main, name="scripted", args=(script1, script2),
    )
    lim = ExplorationLimits(max_schedules=20_000)
    dfs = run_single(program, "dfs", lim, verify=True)
    assert dfs.exhausted, "vocabulary produced a too-large program"
    dpor = run_single(program, "dpor", lim, verify=True)
    assert dpor.exhausted
    # terminal-state soundness: the reduced exploration reaches exactly
    # the states exhaustive enumeration reaches
    assert dpor.state_hashes == dfs.state_hashes
    assert dpor.num_states == dfs.num_states
    # finding soundness: same distinct error kinds
    assert {e.kind for e in dpor.errors} == {e.kind for e in dfs.errors}
    # the paper's inequality holds on both
    dfs.verify_inequality()
    dpor.verify_inequality()
