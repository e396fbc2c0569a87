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
tests, the ref-vs-C hypothesis property and CI's cross-engine
campaign diff.

The one hashed value the C kernel delegates back to CPython is a
non-int element key (``PyObject_Hash``), so string-keyed locations
inherit the process's randomized string hash exactly like the
reference engine — fingerprints were never stable across processes for
those, by design.
"""

from __future__ import annotations

import platform
import sys
from typing import Dict

from .fingerprint import _SEED

try:  # the compiled kernel; absence is not an error (ref is the fallback)
    from . import _native as _C  # type: ignore[attr-defined]
except ImportError:  # pragma: no cover - exercised by the uncompiled CI job
    _C = None

#: True when the compiled C kernel imported: the registry's ``auto``
#: resolves to ``native`` exactly when this is true.
NATIVE_COMPILED = _C is not None

if NATIVE_COMPILED:

    class NativeClockEngine(_C.EngineCore):  # type: ignore[misc, name-defined]
        """The compiled kernel, plus :meth:`fork`, the one method the
        runtime calls that is not in C (at snapshot frequency)."""

        backend = "native"

        def fork(self) -> "NativeClockEngine":
            eng = type(self)()
            eng._adopt(self)
            return eng


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
