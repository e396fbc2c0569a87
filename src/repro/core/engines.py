"""The two clock-engine backends, and how a run picks one.

The replay hot path — :meth:`~repro.core.hb.DualClockEngine.observe`,
called once per event by :meth:`~repro.runtime.executor.Executor.step`
— exists in two implementations:

* ``ref`` — the pure-Python reference (:class:`~repro.core.hb
  .DualClockEngine`): list-of-list clocks, always available.  It is
  both the executable spec and the fallback on a checkout without the
  compiled extension.
* ``native`` — the compiled C kernel (``repro.core._native``, wrapped
  by :mod:`repro.core.hb_native`): the same dual-clock join, dominance
  tables and fingerprint chains over contiguous machine-int rows.
  Available only when the extension is built for this interpreter
  (``python setup.py build_ext --inplace``).

The two are byte-identical by contract: fingerprints, state hashes,
schedules and clock snapshots match suite-wide (the equivalence tests
run under either backend, the ref-vs-C hypothesis property and CI's
cross-engine campaign diff enforce it).

Selection is runtime, with this precedence:

1. an explicit name (``--engine`` on the ``bench``/``campaign``/
   ``check`` CLIs, or the ``engine=`` parameter threaded through
   :class:`~repro.runtime.executor.Executor` and the explorers);
2. the ``REPRO_ENGINE`` environment variable (``ref`` or ``native``);
3. ``auto`` — ``native`` exactly when the compiled extension imports,
   ``ref`` otherwise.

An explicit ``native`` on a checkout without the compiled extension
raises ``ValueError`` naming the build command; it never quietly runs
something else.  See DESIGN.md §11 and §13.
"""

from __future__ import annotations

import os
from typing import Dict, Optional

from .hb import DualClockEngine

#: Environment variable consulted when no explicit engine is requested.
ENGINE_ENV = "REPRO_ENGINE"

#: Name resolved when neither an explicit request nor the environment
#: names a backend.
AUTO = "auto"

#: Every backend name, reference first.
BACKENDS = ("ref", "native")

#: The command that builds the compiled kernel, named by every error
#: about its absence.
BUILD_HINT = "python setup.py build_ext --inplace"

_NATIVE_COMPILED: Optional[bool] = None


def native_compiled() -> bool:
    """True when the compiled C kernel imported, i.e. when ``native``
    is available.  Drives the ``auto`` pick and the bench provenance
    rows.  Memoised: every executor construction asks (via
    :func:`resolve_engine`), and the answer is fixed per process once
    :mod:`~repro.core.hb_native` has imported."""
    global _NATIVE_COMPILED
    if _NATIVE_COMPILED is None:
        from .hb_native import NATIVE_COMPILED

        _NATIVE_COMPILED = NATIVE_COMPILED
    return _NATIVE_COMPILED


def engine_provenance(name: str) -> dict:
    """Provenance of a resolved backend, recorded per bench case row:
    how the kernel executing the measurement was actually built."""
    import platform

    if name == "native":
        from .hb_native import provenance

        return dict(provenance())
    return {
        "compiled": False,
        "compiler": None,
        "python": platform.python_version(),
        "implementation": platform.python_implementation(),
    }


def available_backends() -> tuple:
    """The backends this process can build, reference first: ``ref``
    always, ``native`` when the compiled kernel imported."""
    return BACKENDS if native_compiled() else BACKENDS[:1]


#: (requested name, REPRO_ENGINE value) -> resolved backend.  Every
#: executor construction resolves; the answer only changes when the
#: environment variable does, so the pair is the full cache key.
_RESOLVE_CACHE: Dict[tuple, str] = {}


def resolve_engine(name: Optional[str] = None) -> str:
    """Resolve a requested engine name to a concrete backend.

    ``None``/``"auto"`` consults :data:`ENGINE_ENV`, then falls back to
    ``native`` when its compiled kernel imported and ``ref`` otherwise.
    An unknown name, or ``native`` without the compiled kernel, raises
    ``ValueError`` (misconfiguration should be loud, not a silent
    fallback).
    """
    env = os.environ.get(ENGINE_ENV)
    cached = _RESOLVE_CACHE.get((name, env))
    if cached is not None:
        return cached
    requested = name
    if name is None or name == "" or name == AUTO:
        name = env or AUTO
    if name == AUTO:
        resolved = "native" if native_compiled() else "ref"
    elif name not in BACKENDS:
        raise ValueError(
            f"unknown engine {name!r}; available: {list(BACKENDS)} "
            f"(or 'auto')"
        )
    elif name == "native" and not native_compiled():
        raise ValueError(
            "engine 'native' needs the compiled extension, which is not "
            f"built for this interpreter; run `{BUILD_HINT}` or use "
            "engine 'ref'"
        )
    else:
        resolved = name
    _RESOLVE_CACHE[(requested, env)] = resolved
    return resolved


def create_clock_engine(name: Optional[str] = None):
    """Build a clock engine for the resolved backend."""
    resolved = resolve_engine(name)
    if resolved == "ref":
        return DualClockEngine()
    from .hb_native import NativeClockEngine, self_test

    self_test()
    return NativeClockEngine()
