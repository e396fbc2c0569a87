"""The native clock engine (``engine="native"``): the compiled kernel.

This module is the Python frontend of ``repro.core._native``, the C
implementation of the hot-path kernel — the dual-side clock join of
:meth:`~repro.core.hb.DualClockEngine.observe`, the dominance-based
table replacement, and the flat fingerprint hashing (built by
``python setup.py build_ext --inplace``; see DESIGN.md §13).  When the
extension imports, :data:`NATIVE_COMPILED` is true, the registry's
``auto`` pick resolves to ``native``, and :class:`NativeClockEngine`
is the class ``create_clock_engine("native")`` builds.  When it does
not, the reference engine is the fallback and ``native`` is not
available (:mod:`repro.core.engines`).

Byte-identity with the reference engine is not aspirational: the
compiled kernel re-implements CPython's own int and tuple hashing
(``pyhash.c``'s xxPRIME tuple hash over 61-bit-modulus int hashes), so
fingerprints, published clock snapshots, schedules and state hashes
are bit-for-bit identical, enforced suite-wide by the equivalence
tests, the ref-vs-C hypothesis property and the ``bench --engine
both`` harness.

The one hashed value the C kernel delegates back to CPython is a
non-int element key (``PyObject_Hash``), so string-keyed locations
inherit the process's randomized string hash exactly like the
reference engine — fingerprints were never stable across processes for
those, by design.
"""

from __future__ import annotations

import platform
import sys
from typing import Dict, Optional

from .events import Event
from .fingerprint import _SEED
from .vector_clock import VectorClock

try:  # the compiled kernel; absence is not an error (ref is the fallback)
    from . import _native as _C  # type: ignore[attr-defined]
except ImportError:  # pragma: no cover - exercised by the uncompiled CI job
    _C = None

#: True when the compiled C kernel imported: the registry's ``auto``
#: resolves to ``native`` exactly when this is true.
NATIVE_COMPILED = _C is not None

if NATIVE_COMPILED:

    class NativeClockEngine(_C.EngineCore):  # type: ignore[misc, name-defined]
        """The compiled kernel, plus the thin conveniences the rest of
        the runtime expects (everything on the per-event path lives in
        C; these wrappers are called at spawn/snapshot frequency)."""

        backend = "native"

        def fork(self) -> "NativeClockEngine":
            eng = type(self)()
            eng._adopt(self)
            return eng

        def register_thread(
            self, tid: int, parent_spawn_event: Optional[Event] = None
        ) -> None:
            if parent_spawn_event is not None:
                assert parent_spawn_event.clock is not None
                self.register_thread_clocks(
                    tid,
                    parent_spawn_event.clock,
                    parent_spawn_event.lazy_clock,
                )
            else:
                self.reserve(tid + 1)

        def add_release_edge(self, event: Event, released_tid: int) -> None:
            assert event.clock is not None and event.lazy_clock is not None
            self.add_release_edge_clocks(
                event.clock, event.lazy_clock, released_tid
            )

        def on_event(self, event: Event) -> None:
            event.clock, event.lazy_clock = self.observe(
                event.tid, event.kind, event.oid, event.key,
                event.released_mutex_oid,
            )

        def canonical_hbr(self):
            raise ValueError("engine was created with canonical=False")

        def canonical_lazy_hbr(self):
            raise ValueError("engine was created with canonical=False")

        def thread_clock(self, tid: int, lazy: bool = False) -> VectorClock:
            return VectorClock(init=self.thread_clock_raw(tid, lazy))


def provenance() -> Dict[str, object]:
    """How this process's ``native`` backend was built — recorded per
    bench case row so reports cannot silently mix compiled and
    reference numbers (the ``bench --baseline`` comparison warns on
    mismatch)."""
    return {
        "compiled": NATIVE_COMPILED,
        "compiler": (_C.COMPILER if NATIVE_COMPILED else None),
        "python": platform.python_version(),
        "implementation": platform.python_implementation(),
    }


_SELF_TESTED = False


def self_test() -> None:
    """Assert the compiled kernel's re-implementation of CPython's int
    and tuple hashing agrees with this interpreter (no-op uncompiled).
    Cheap, and run once per process — on the first compiled-engine
    construction — so a miscompiled artifact is loud at selection
    time, not wrong at fingerprint time."""
    global _SELF_TESTED
    if not NATIVE_COMPILED or _SELF_TESTED:
        return
    _SELF_TESTED = True
    probes = (
        0, 1, -1, -2, 7, 2**60, 2**61 - 1, 2**61, 2**61 + 5,
        -(2**61) - 7, 2**63 - 1, -(2**63),
    )
    for v in probes:
        got = _C.int_hash(v)
        want = hash(v)
        if got != want:
            raise ImportError(
                f"_native int_hash({v}) = {got} != hash() = {want}; "
                f"rebuild the extension for this interpreter "
                f"(python {sys.version.split()[0]})"
            )
    samples = (
        (), (0,), (1, 2, 3), (-1, -2, 2**62, 5),
        (hash((_SEED, 0)), 3, 0, -1, (1, 0, 2)),
    )
    for t in samples:
        got = _C.tuple_hash_probe(t)
        want = hash(t)
        if got != want:
            raise ImportError(
                f"_native tuple hash of {t!r} = {got} != hash() = {want}"
            )
