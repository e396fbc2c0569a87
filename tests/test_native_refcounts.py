"""Reference counts and memory of the compiled clock kernel.

``repro.core._native`` manages two kinds of memory by hand: Python
references (keys and snapshot tuples stored in its keyed tables and
pending release edges) and refcounted ``Snap`` rows allocated with
``PyMem_Malloc``.  A missed decref keeps a caller's object alive; a
missed free grows the process.  Neither shows up in any fingerprint.

Each test runs many cycles of every entry point that stores or drops
references — keyed and keyless ``observe``, ``observe`` with a
released mutex, ``add_release_edge_clocks``, ``register_thread_clocks``,
``fork``, ``_adopt`` onto a used engine and ``fingerprint_after`` —
then drops every engine and checks that

* ``sys.getrefcount`` of each key and clock tuple handed in is back at
  its baseline, and
* ``tracemalloc`` growth across the cycles stays under a small fixed
  bound (``PyMem_Malloc`` allocations are traced).

Skipped when the extension is not compiled.
"""

import gc
import sys
import tracemalloc

import pytest

from repro.core.engines import create_clock_engine, native_compiled
from repro.core.events import OpKind

pytestmark = pytest.mark.skipif(
    not native_compiled(), reason="native extension not compiled"
)

NTHREADS = 3
#: alternate kinds so both the replacing (modifying) and the joining
#: (concurrent readers) publication paths run
KINDS = (int(OpKind.WRITE), int(OpKind.READ), int(OpKind.RMW),
         int(OpKind.CHAN_SEND), int(OpKind.LOCK))
WAIT = int(OpKind.WAIT)


def _handed_in():
    """Fresh objects, so that no other reference hides a leak: a str,
    a tuple and an int too large for the small-int cache as keys, and
    clock tuples for the release and spawn edges."""
    keys = [None, "".join(["sl", "ot"]), ("elem", 10 ** 20), 10 ** 20 + 1]
    clocks = [tuple([3, 1, 4]), tuple([2, 7, 1, 8]), tuple([0, 0, 9])]
    return keys, clocks


def _cycle(keys, clocks):
    engine = create_clock_engine("native")
    engine.reserve(NTHREADS)
    for i in range(40):
        tid = i % NTHREADS
        kind = KINDS[i % len(KINDS)]
        key = keys[i % len(keys)]
        oid = i % 4
        for lazy in (False, True):
            engine.fingerprint_after(tid, kind, oid, key, None, lazy)
            engine.fingerprint_after(tid, WAIT, 6, None, 5, lazy)
        engine.observe(tid, kind, oid, key)
        engine.observe(tid, WAIT, 6, None, 5)
        engine.add_release_edge_clocks(
            clocks[i % 3], clocks[(i + 1) % 3], (tid + 1) % NTHREADS
        )
        if i % 10 == 0:
            engine.register_thread_clocks(tid, clocks[0], clocks[1])
        if i % 7 == 0:
            # a pending edge is held by the fork and by the original
            fork = engine.fork()
            fork.observe((tid + 1) % NTHREADS, kind, oid, key)
            fork.fingerprint_after(tid, kind, oid, key, None, True)
            engine._adopt(fork)  # onto a used engine
            del fork
    engine.thread_clock_raw(0, True)
    engine.table_stats()


def test_handed_in_objects_are_released():
    keys, clocks = _handed_in()
    watched = [k for k in keys if k is not None] + clocks
    baseline = [sys.getrefcount(o) for o in watched]
    for _ in range(50):
        _cycle(keys, clocks)
    gc.collect()
    assert [sys.getrefcount(o) for o in watched] == baseline


def test_no_memory_growth_across_cycles():
    keys, clocks = _handed_in()
    _cycle(keys, clocks)  # warm caches (interned ints, method lookups)
    gc.collect()
    tracemalloc.start()
    try:
        _cycle(keys, clocks)
        gc.collect()
        start, _ = tracemalloc.get_traced_memory()
        for _ in range(200):
            _cycle(keys, clocks)
        gc.collect()
        end, _ = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    # one leaked Snap row per observe would be ~50 bytes x 16,000
    assert end - start < 16 * 1024, f"grew by {end - start} bytes"
