"""Op-stream memoisation: replay guests without re-running them.

Guest threads are *pure coroutines* — the invariant every replay
mechanism in this runtime already rests on (see
:mod:`repro.runtime.snapshot`): a guest body touches shared state only
through executed operations, so the sequence of ``Op`` values it
yields is fully determined by the sequence of values the executor has
``send()``-ed into it.  The snapshot machinery exploits this by
re-feeding recorded tapes into fresh generators; this module exploits
it harder: once a ``(thread, send-history)`` pair has been executed
once, the op it yields next is *known*, and replaying it again does
not need a generator at all.

The cache is a per-:class:`~repro.runtime.program.ProgramInstance`
**trie**: one root per static thread, one edge per distinct send
value, one node per ``(thread, send-history)`` prefix holding the op
the guest yielded on arriving there.  Replay walks edges with a dict
lookup per event instead of resuming a generator frame through guest
code; schedule divergence (the whole point of systematic exploration)
lands on an unexplored edge, at which point the executor *materialises*
the generator — rebuilds it and re-feeds the recorded history, exactly
a snapshot fast-forward — and resumes live execution, recording the
fresh edges as it goes.

Scoping rules that make this sound:

* The trie is owned by one ``ProgramInstance`` and caches that
  instance's ``Op`` objects verbatim (ops close over the instance's
  shared objects).  Instance reuse — snapshot restores with
  ``reuse=`` — is what makes the cache hit; a fresh instance starts a
  fresh trie.  A snapshot records each thread's node together with the
  trie, and a restore onto the instance that owns that trie puts the
  thread straight back on its node.  A position is never re-derived
  by walking the send tape from a root: a thread without a recorded
  node is fast-forwarded instead.
* Ops are write-once (the one mutation, re-pointing a SLEEP at the
  instance clock, is idempotent per instance), so sharing one cached
  ``Op`` across replays is safe.
* Only *send values with value semantics* become edges
  (:func:`trie_key`): ints, strings, bools, floats, bytes, ``None``
  and tuples thereof.  Anything else — user objects flowing through
  channels, say — refuses to key, and the thread falls back to live
  generator execution for the rest of its run.
* Programs whose guests carry host-side Python state
  (``replay_finished_threads``: the shim frontend) never enable the
  cache: their side effects must actually re-execute.
* Runtime-injected exceptions (``fx_throw``) are not part of the send
  alphabet: a throw materialises the generator and permanently leaves
  the trie for that thread.

Set ``REPRO_OPCACHE=0`` to disable the cache process-wide; the
byte-identity suite runs the same explorations with the cache on and
off and asserts identical schedules, fingerprints and stats.
"""

from __future__ import annotations

from typing import Any, Dict, List

#: Sentinel for a send value the trie refuses to key on (no value
#: semantics); distinct from any real key.
UNKEYABLE = object()

#: Node layout: ``[op, children]`` where ``children`` is ``None``
#: until the first outgoing edge is recorded, then a dict mapping
#: :func:`trie_key` of the send value to the child node.  A node whose
#: op is a synthesized EXIT is terminal by construction (guests never
#: yield EXIT; it marks StopIteration or a guest crash).
Node = List[Any]


class OpTrie:
    """Per-instance op-stream cache (see module docstring).

    ``cap`` bounds total node count: beyond it, new edges simply stop
    being recorded (threads fall back to live generators), so a
    program with an enormous behaviour space degrades to exactly the
    pre-cache replay cost plus a dict miss.
    """

    __slots__ = ("roots", "nodes", "cap")

    def __init__(self, cap: int = 200_000) -> None:
        self.roots: Dict[int, Node] = {}  # static tid -> root node
        self.nodes = 0
        self.cap = cap


def trie_key(v: Any) -> Any:
    """The edge key for send value ``v``, or :data:`UNKEYABLE`.

    Keys preserve type distinctions that Python's cross-type equality
    would collapse (``1 == True == 1.0``): a guest branching on the
    *type* of a received value must not hit another type's edge.
    """
    tv = type(v)
    if tv is int or tv is str:
        return v
    if v is None:
        return v
    if tv is bool:
        return ("\x00b", v)
    if tv is float:
        return ("\x00f", v)
    if tv is bytes:
        return v
    if tv is tuple:
        out: List[Any] = ["\x00t"]
        for x in v:
            k = trie_key(x)
            if k is UNKEYABLE:
                return UNKEYABLE
            out.append(k)
        return tuple(out)
    return UNKEYABLE


__all__ = ["OpTrie", "trie_key", "UNKEYABLE", "Node"]
