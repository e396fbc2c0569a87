"""The engine backend registry and ref-vs-native byte-identity.

Three layers of assurance:

* registry unit tests — resolution precedence (explicit > environment >
  auto), the compiled-artifact-aware auto pick, and loud failures on
  misconfiguration (an unknown name, or ``native`` without the
  compiled kernel);
* a hypothesis property driving the reference engine and, when built,
  the compiled kernel through identical random operation sequences —
  spawn edges, release edges, engine forks and read-only
  ``fingerprint_after`` lookaheads included — and comparing every
  published clock snapshot, fingerprint and dominance outcome event by
  event.  Each engine also runs alongside an independent fork
  of itself taken before the first event, so state aliasing between a
  parent and its fork shows up as divergence on every checkout;
* subprocess tests proving ``REPRO_ENGINE`` actually steers a fresh
  interpreter (the escape hatch the docs promise).
"""

import itertools
import os
import subprocess
import sys

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import engines as engines_mod
from repro.core.engines import (
    ENGINE_ENV,
    available_backends,
    create_clock_engine,
    engine_provenance,
    native_compiled,
    resolve_engine,
)
from repro.core.events import OpKind
from repro.core.hb import DualClockEngine

REPO_ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def _fresh_engines(nthreads):
    """Every engine under test, pre-sized for ``nthreads``: one instance
    per available backend, each followed by an independent fork of
    itself.  Index 0 is the reference."""
    engines = []
    for name in available_backends():
        e = create_clock_engine(name)
        e.reserve(nthreads)
        engines += [e, e.fork()]
    return engines


@pytest.fixture
def uncompiled(monkeypatch):
    """Make this process look like a checkout without the compiled
    kernel, whether or not it is built."""
    monkeypatch.setattr(engines_mod, "_NATIVE_COMPILED", False)
    monkeypatch.setattr(engines_mod, "_RESOLVE_CACHE", {})


class TestRegistry:
    def test_backends_registered(self):
        expected = ("ref", "native") if native_compiled() else ("ref",)
        assert available_backends() == expected

    def test_explicit_name_beats_environment(self, monkeypatch):
        monkeypatch.setenv(ENGINE_ENV, "native")
        assert resolve_engine("ref") == "ref"
        if native_compiled():
            monkeypatch.setenv(ENGINE_ENV, "ref")
            assert resolve_engine("native") == "native"

    def test_environment_beats_auto(self, monkeypatch):
        # env pins ref everywhere, even where auto picks the compiled
        # kernel
        monkeypatch.setenv(ENGINE_ENV, "ref")
        assert resolve_engine(None) == "ref"
        assert resolve_engine("auto") == "ref"
        if native_compiled():
            monkeypatch.setenv(ENGINE_ENV, "native")
            assert resolve_engine(None) == "native"

    def test_auto_tracks_compiled_artifact(self, monkeypatch):
        # auto picks the compiled native kernel when the artifact is
        # built, and the reference engine when not
        monkeypatch.delenv(ENGINE_ENV, raising=False)
        expected = "native" if native_compiled() else "ref"
        assert resolve_engine(None) == expected
        assert resolve_engine("auto") == expected

    def test_unknown_engine_is_loud(self):
        with pytest.raises(ValueError, match="unknown engine"):
            resolve_engine("turbo")

    def test_unavailable_engine_is_loud(self, monkeypatch, uncompiled):
        # explicit native without the compiled kernel names the build
        # command instead of quietly running something else
        monkeypatch.delenv(ENGINE_ENV, raising=False)
        with pytest.raises(ValueError, match="build_ext --inplace"):
            resolve_engine("native")
        with pytest.raises(ValueError, match="build_ext --inplace"):
            create_clock_engine("native")
        monkeypatch.setenv(ENGINE_ENV, "native")
        with pytest.raises(ValueError, match="build_ext --inplace"):
            resolve_engine(None)
        # ...while auto still falls back to the reference engine
        monkeypatch.delenv(ENGINE_ENV)
        assert resolve_engine(None) == "ref"

    @pytest.mark.parametrize("name", available_backends())
    def test_provenance_describes_each_backend(self, name):
        # the repository benchmark records this with every result, so
        # its compare.py can warn when two results ran on unlike builds
        prov = engine_provenance(name)
        assert prov["compiled"] is (name == "native")
        assert (prov["compiler"] is None) is (name == "ref")
        assert prov["python"] and prov["implementation"]

    def test_create_respects_backend(self):
        assert create_clock_engine("ref").backend == "ref"
        assert isinstance(create_clock_engine("ref"), DualClockEngine)
        if native_compiled():
            assert create_clock_engine("native").backend == "native"
        else:
            with pytest.raises(ValueError, match="build_ext"):
                create_clock_engine("native")


# -- the hypothesis property -------------------------------------------

#: Kinds the property exercises: data ops (both dominance branches),
#: mutex ops (lazy side must skip them) and the channel kinds (tuple
#: keys exercise the compiled kernel's keyed location tables).
_KINDS = (
    OpKind.READ, OpKind.WRITE, OpKind.RMW,
    OpKind.LOCK, OpKind.UNLOCK,
    OpKind.CHAN_SEND, OpKind.CHAN_RECV,
)


def _steps(nthreads):
    tid = st.integers(0, nthreads - 1)
    observe = st.tuples(
        st.just("observe"), tid, st.sampled_from(_KINDS),
        st.integers(0, 3), st.sampled_from([None, 0, 1, "slot"]),
    )
    # WAIT releases its paired mutex: the regular side publishes to the
    # mutex location too
    wait = st.tuples(st.just("wait"), tid, st.integers(0, 3))
    release = st.tuples(st.just("release"), tid, tid)
    spawn = st.tuples(st.just("spawn"), tid, tid)
    fork = st.tuples(st.just("fork"))
    # fingerprint_after of one event on every thread, WAITs with a
    # released mutex too
    peek = st.tuples(
        st.just("peek"), st.sampled_from(_KINDS + (OpKind.WAIT,)),
        st.integers(0, 3), st.sampled_from([None, 0, 1, "slot"]),
        st.one_of(st.none(), st.integers(0, 3)),
    )
    return st.lists(
        st.one_of(observe, wait, release, spawn, fork, peek),
        min_size=1, max_size=60,
    )


def _engine_state(engine, nthreads):
    """Everything a read-only call must leave alone."""
    return (
        engine.hbr_fingerprint(), engine.lazy_fingerprint(),
        [list(engine.thread_clock_raw(t, lazy))
         for t in range(nthreads) for lazy in (False, True)],
        engine.table_stats(),
    )


class TestObserveEquivalence:
    """Every engine must agree with the reference on every observable,
    event by event."""

    def _compare(self, engines, nthreads):
        ref = engines[0]
        for i, other in enumerate(engines[1:], 1):
            label = (i, type(other).__name__)
            assert ref.hbr_fingerprint() == other.hbr_fingerprint(), label
            assert ref.lazy_fingerprint() == other.lazy_fingerprint(), label
            for t in range(nthreads):
                for lazy in (False, True):
                    assert (
                        list(ref.thread_clock_raw(t, lazy))
                        == list(other.thread_clock_raw(t, lazy))
                    ), (label, t, lazy)

    @settings(max_examples=60, deadline=None)
    @given(st.data())
    def test_random_sequences(self, data):
        nthreads = data.draw(st.integers(2, 5))
        steps = data.draw(_steps(nthreads))
        engines = _fresh_engines(nthreads)
        last_snap = {}
        for step in steps:
            if step[0] == "observe":
                _, tid, kind, oid, key = step
                snaps = [e.observe(tid, int(kind), oid, key)
                         for e in engines]
                assert all(s == snaps[0] for s in snaps), step
                last_snap[tid] = snaps[0]
            elif step[0] == "wait":
                _, tid, moid = step
                snaps = [
                    e.observe(tid, int(OpKind.WAIT), moid + 10, None,
                              released_mutex_oid=moid)
                    for e in engines
                ]
                assert all(s == snaps[0] for s in snaps), step
                last_snap[tid] = snaps[0]
            elif step[0] == "release":
                _, src, dst = step
                snap = last_snap.get(src)
                if snap is None:
                    continue
                for e in engines:
                    e.add_release_edge_clocks(snap[0], snap[1], dst)
            elif step[0] == "spawn":
                _, parent, child = step
                snap = last_snap.get(parent)
                if snap is None:
                    continue
                for e in engines:
                    e.register_thread_clocks(child, snap[0], snap[1])
            elif step[0] == "peek":
                # fingerprint_after is what fork() + observe() leaves
                # behind, agrees across engines, and changes nothing
                _, kind, oid, key, released = step
                for tid, lazy in itertools.product(range(nthreads),
                                                   (False, True)):
                    event = (tid, int(kind), oid, key, released)
                    want = engines[0].fingerprint_after(*event, lazy)
                    for e in engines:
                        before = _engine_state(e, nthreads)
                        got = e.fingerprint_after(*event, lazy)
                        assert _engine_state(e, nthreads) == before, step
                        stepped = e.fork()
                        stepped.observe(*event)
                        assert got == want == (
                            stepped.lazy_fingerprint() if lazy
                            else stepped.hbr_fingerprint()
                        ), (step, tid, lazy, type(e).__name__)
            else:  # fork: continue on the copies — copy-on-publish must
                # not let the child alias the parent's published rows
                engines = [e.fork() for e in engines]
            self._compare(engines, nthreads)

    @settings(max_examples=20, deadline=None)
    @given(st.data())
    def test_fork_isolation(self, data):
        """Mutating a fork never leaks into the parent (any engine)."""
        nthreads = 3
        engines = _fresh_engines(nthreads)
        warm = data.draw(_steps(nthreads))
        for step in warm:
            if step[0] == "observe":
                _, tid, kind, oid, key = step
                for e in engines:
                    e.observe(tid, int(kind), oid, key)
        forks = [e.fork() for e in engines]
        ref = engines[0]
        before = (ref.hbr_fingerprint(), ref.lazy_fingerprint())
        for tid in range(nthreads):
            for f in forks:
                f.observe(tid, int(OpKind.WRITE), 0, None)
        assert (ref.hbr_fingerprint(), ref.lazy_fingerprint()) == before
        rfork = forks[0]
        for parent, fork in zip(engines[1:], forks[1:]):
            assert parent.hbr_fingerprint() == ref.hbr_fingerprint()
            assert fork.hbr_fingerprint() == rfork.hbr_fingerprint()
            assert fork.lazy_fingerprint() == rfork.lazy_fingerprint()

    def test_wide_clocks_hit_bulk_join_path(self):
        """40 threads, far wider than any suite program: every engine's
        row-growth and full-width join paths, with keyed and keyless
        locations mixed."""
        nthreads = 40
        engines = _fresh_engines(nthreads)
        ref = engines[0]
        for round_no in range(3):
            for tid in range(nthreads):
                kind = _KINDS[(tid + round_no) % len(_KINDS)]
                key = None if tid % 3 else "wide"
                snaps = [e.observe(tid, int(kind), tid % 5, key)
                         for e in engines]
                assert all(s == snaps[0] for s in snaps), (round_no, tid)
        assert ref.table_stats()[1] == nthreads
        for other in engines[1:]:
            assert ref.hbr_fingerprint() == other.hbr_fingerprint()
            assert ref.lazy_fingerprint() == other.lazy_fingerprint()
            assert ref.table_stats() == other.table_stats()



@pytest.mark.skipif(not native_compiled(),
                    reason="native extension not compiled")
def test_native_rejects_non_tuple_clocks():
    """The compiled kernel reads stored clock snapshots as tuples, so
    it refuses anything else where they come in."""
    engine = create_clock_engine("native")
    engine.reserve(2)
    with pytest.raises(TypeError, match="tuples"):
        engine.add_release_edge_clocks([1, 0], (1, 0), 1)
    with pytest.raises(TypeError, match="tuples"):
        engine.register_thread_clocks(1, (1, 0), [1, 0])
    assert engine.table_stats() == (0, 2)
    engine.observe(1, int(OpKind.WRITE), 0, None)


@pytest.mark.parametrize("backend", available_backends())
def test_clock_reads_do_not_grow_the_engine(backend):
    """Reading a clock is read-only: a tid past the registered threads
    reads as the empty clock and registers nothing, so neither
    relation's fingerprint nor ``table_stats()`` moves."""
    engine = create_clock_engine(backend)
    engine.reserve(2)
    engine.observe(0, int(OpKind.WRITE), 1, None)
    engine.observe(1, int(OpKind.READ), 1, None)
    before = (engine.hbr_fingerprint(), engine.lazy_fingerprint(),
              engine.table_stats())
    for lazy in (False, True):
        assert tuple(engine.thread_clock_raw(5, lazy)) == ()
        assert list(engine.thread_clock_raw(1, lazy)) == [1, 1]
    after = (engine.hbr_fingerprint(), engine.lazy_fingerprint(),
             engine.table_stats())
    assert after == before
    assert engine.table_stats()[1] == 2

class TestEnvSteering:
    """REPRO_ENGINE must steer a fresh interpreter end to end."""

    def _run(self, engine_env, hide_kernel=False):
        env = dict(os.environ)
        env["PYTHONPATH"] = os.path.join(REPO_ROOT, "src") + (
            os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else ""
        )
        env[ENGINE_ENV] = engine_env
        code = (
            # a None entry makes the import fail as if it were not built
            ("import sys; sys.modules['repro.core._native'] = None\n"
             if hide_kernel else "")
            + "from repro.runtime.executor import Executor\n"
            "from repro.suite import REGISTRY\n"
            "ex = Executor(REGISTRY[4].program)\n"
            "print(ex.engine_name, ex.engine.backend)\n"
        )
        return subprocess.run(
            [sys.executable, "-c", code], capture_output=True, text=True,
            env=env, cwd=REPO_ROOT,
        )

    def _backend(self, engine_env):
        proc = self._run(engine_env)
        assert proc.returncode == 0, proc.stderr
        return proc.stdout.split()

    def test_ref_env_forces_fallback(self):
        # even where auto would pick the compiled kernel
        assert self._backend("ref") == ["ref", "ref"]

    def test_native_env_forces_native_everywhere(self):
        if native_compiled():
            assert self._backend("native") == ["native", "native"]
        # without the compiled kernel (hidden here when it is built) the
        # same request fails loudly, naming the build command, instead
        # of running a stand-in
        proc = self._run("native", hide_kernel=True)
        assert proc.returncode != 0
        assert "ValueError" in proc.stderr
        assert "build_ext --inplace" in proc.stderr
