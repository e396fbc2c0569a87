"""The engine backend registry and ref-vs-native byte-identity.

Three layers of assurance:

* registry unit tests — resolution precedence (explicit > environment >
  auto), the compiled-artifact-aware auto pick, and loud failures on
  misconfiguration (an unknown name, or ``native`` without the
  compiled kernel);
* a hypothesis property driving the reference engine and, when built,
  the compiled kernel through identical random operation sequences —
  spawn edges, release edges, engine forks included — and comparing
  every published clock snapshot, fingerprint and dominance outcome
  event by event.  Each engine also runs alongside an independent fork
  of itself taken before the first event, so state aliasing between a
  parent and its fork shows up as divergence on every checkout;
* subprocess tests proving ``REPRO_ENGINE`` actually steers a fresh
  interpreter (the escape hatch the docs promise).
"""

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

    def test_create_respects_backend(self):
        assert create_clock_engine("ref").backend == "ref"
        assert isinstance(create_clock_engine("ref"), DualClockEngine)
        if native_compiled():
            assert create_clock_engine("native").backend == "native"
        else:
            with pytest.raises(ValueError, match="build_ext"):
                create_clock_engine("native")

    def test_canonical_always_reference(self):
        # canonical HBR forms are theorem-checker machinery; only the
        # reference engine carries them
        for name in available_backends():
            engine = create_clock_engine(name, canonical=True)
            assert isinstance(engine, DualClockEngine)
            assert engine.backend == "ref"

    def test_native_canonical_accessors_raise(self):
        # every non-canonical engine (native included, when built)
        for name in available_backends():
            engine = create_clock_engine(name)
            with pytest.raises(ValueError, match="canonical"):
                engine.canonical_hbr()
            with pytest.raises(ValueError, match="canonical"):
                engine.canonical_lazy_hbr()


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
    return st.lists(
        st.one_of(observe, wait, release, spawn, fork),
        min_size=1, max_size=60,
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


class TestEnvSteering:
    """REPRO_ENGINE must steer a fresh interpreter end to end."""

    def _run(self, engine_env, fast_replay, hide_kernel=False):
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
            f"ex = Executor(REGISTRY[4].program, fast_replay={fast_replay})\n"
            "print(ex.engine_name, ex.engine.backend)\n"
        )
        return subprocess.run(
            [sys.executable, "-c", code], capture_output=True, text=True,
            env=env, cwd=REPO_ROOT,
        )

    def _backend(self, engine_env, fast_replay):
        proc = self._run(engine_env, fast_replay)
        assert proc.returncode == 0, proc.stderr
        return proc.stdout.split()

    def test_ref_env_forces_fallback(self):
        # even on the fast-replay path, where auto may pick the
        # compiled kernel
        assert self._backend("ref", True) == ["ref", "ref"]

    def test_native_env_forces_native_everywhere(self):
        if native_compiled():
            assert self._backend("native", True) == ["native", "native"]
            assert self._backend("native", False) == ["native", "native"]
        # without the compiled kernel (hidden here when it is built) the
        # same request fails loudly, naming the build command, instead
        # of running a stand-in
        proc = self._run("native", True, hide_kernel=True)
        assert proc.returncode != 0
        assert "ValueError" in proc.stderr
        assert "build_ext --inplace" in proc.stderr
