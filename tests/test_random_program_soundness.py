"""Hypothesis-driven soundness: on randomly generated lock-structured
programs, every reduction strategy must find exactly the terminal
states exhaustive DFS finds — the strongest evidence the explorers are
correct beyond the hand-picked suite."""

import json

from hypothesis import HealthCheck, example, given, settings, \
    strategies as st

from repro import Program
from repro.explore import (
    DelayBoundedExplorer,
    DFSExplorer,
    DPORExplorer,
    ExplorationLimits,
    HBRCachingExplorer,
    IterativeContextBoundingExplorer,
    LazyDPORExplorer,
    PreemptionBoundedExplorer,
    make_explorer,
)
from repro.explore.kernel import SNAPSHOT_VERSION

from reference_explorers import OracleHBRCaching

LIM = ExplorationLimits(max_schedules=60_000)

# Program shapes kept tiny so DFS always exhausts: 2 threads, each up
# to 3 segments of up to 2 ops over 2 variables and up to 2 mutexes.
# A segment is ``(lock, ops)``: ``lock`` is None (bare ops), a mutex
# index (ops in a critical section) or SPAWN, which starts a child
# thread running ``ops`` and joins it after the parent's last segment.
SPAWN = "spawn"
data_op = st.tuples(
    st.sampled_from(["read", "write", "incr"]),
    st.integers(min_value=0, max_value=1),
)
segment = st.one_of(
    data_op.map(lambda op: (None, [op])),
    st.tuples(
        st.integers(min_value=0, max_value=1),  # which mutex
        st.lists(data_op, min_size=1, max_size=2),
    ),
)
thread_body = st.lists(segment, min_size=1, max_size=3)
#: a child doing one or two data ops, and where it is spawned: the
#: parent thread and the segment position
spawn_site = st.tuples(
    st.integers(min_value=0, max_value=1),
    st.integers(min_value=0, max_value=3),
    st.lists(data_op, min_size=1, max_size=2),
)


def _with_spawn(drawn):
    spec, site = drawn
    spec = [list(body) for body in spec]
    if site is not None:
        parent, pos, ops = site
        spec[parent].insert(min(pos, len(spec[parent])), (SPAWN, ops))
    return spec


def _event_count(spec) -> int:
    """Upper bound on the trace length of a generated program."""
    total = 0
    for body in spec:
        for lock_idx, ops in body:
            # a critical section's lock and unlock; a spawn's SPAWN,
            # JOIN and the child's exit
            total += {None: 0, SPAWN: 3}.get(lock_idx, 2)
            total += sum(2 if op == "incr" else 1 for op, _ in ops)
        total += 1  # exit event
    return total


def _exhaustible(spec) -> bool:
    """Keep the interleaving count DFS-exhaustible: <= 14 events over
    2 threads (at most 3,432 interleavings), <= 12 over 3 (34,650)."""
    spawns = sum(lock_idx == SPAWN for body in spec for lock_idx, _ in body)
    return _event_count(spec) <= (14 if not spawns else 12)


def _program_spec(site):
    return st.tuples(
        st.lists(thread_body, min_size=2, max_size=2), site,
    ).map(_with_spawn).filter(_exhaustible)


#: about half the programs spawn a child
program_spec = _program_spec(st.none() | spawn_site)
#: every program spawns a child
spawn_program_spec = _program_spec(spawn_site)


def build_program(spec):
    def build(p):
        mutexes = [p.mutex("m0"), p.mutex("m1")]
        cells = p.array("cells", [0, 0])

        def make_thread(segments, seed):
            def body(api):
                token = seed
                children = []
                for lock_idx, ops in segments:
                    if lock_idx == SPAWN:
                        child = make_thread([(None, ops)],
                                            seed + 50 + 10 * len(children))
                        children.append((yield api.spawn(child)))
                        continue
                    if lock_idx is not None:
                        yield api.lock(mutexes[lock_idx])
                    for op, var in ops:
                        if op == "read":
                            yield api.read(cells, key=var)
                        elif op == "write":
                            token += 1
                            yield api.write(cells, token, key=var)
                        else:  # incr: read-modify-write as two events
                            v = yield api.read(cells, key=var)
                            yield api.write(cells, v + 1, key=var)
                    if lock_idx is not None:
                        yield api.unlock(mutexes[lock_idx])
                for child in children:
                    yield api.join(child)
            return body

        for i, segments in enumerate(spec):
            p.thread(make_thread(segments, (i + 1) * 100))

    return Program("random_prog", build)


soundness_settings = settings(
    max_examples=20,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)


#: Hypothesis-discovered counterexample to lazy-DPOR exactness: the
#: lazy-HBR prune skips a suffix whose race analysis would have added
#: the backtrack point reaching the second terminal state (the loss
#: mechanism documented in ``repro.explore.lazy_dpor``).  Pinned so
#: every CI run exercises it: the sound explorers must still be exact
#: here, and lazy-DPOR must at least under-approximate soundly.
LAZY_DPOR_GAP_SPEC = [
    [(1, [("write", 0)])],
    [(1, [("read", 1)]), (None, [("read", 1)]), (None, [("write", 0)])],
]


#: a child spawned first, racing its parent's and the other thread's
#: critical sections on the same cell
SPAWN_SPEC = [
    [(SPAWN, [("write", 0)]), (0, [("write", 0)])],
    [(0, [("read", 0)])],
]


@soundness_settings
@given(program_spec)
@example(spec=LAZY_DPOR_GAP_SPEC)
@example(spec=SPAWN_SPEC)
def test_all_reducers_match_dfs_states(spec):
    program = build_program(spec)
    dfs = DFSExplorer(program, LIM)
    stats = dfs.run()
    assert stats.exhausted, "generated program too large for DFS"
    baseline = frozenset(dfs._state_hashes)

    for explorer in (
        DPORExplorer(program, LIM),
        DPORExplorer(program, LIM, sleep_sets=False),
        HBRCachingExplorer(program, LIM, lazy=False),
        HBRCachingExplorer(program, LIM, lazy=True),
    ):
        explorer.run()
        found = frozenset(explorer._state_hashes)
        assert found == baseline, (
            f"{explorer.name} found {len(found)} states, DFS "
            f"{len(baseline)}; spec={spec!r}"
        )

    # lazy-DPOR is documented as approximate: it may under-approximate
    # (see LAZY_DPOR_GAP_SPEC) but must never report an unreachable
    # state, and must find at least one terminal state
    lazy = LazyDPORExplorer(program, LIM)
    lazy.run()
    lazy_found = frozenset(lazy._state_hashes)
    assert lazy_found <= baseline, (
        f"lazy-dpor reported unreachable states; spec={spec!r}"
    )
    assert lazy_found, f"lazy-dpor found no states; spec={spec!r}"


@soundness_settings
@given(spawn_program_spec)
@example(spec=SPAWN_SPEC)
def test_snapshot_capture_invisible_with_spawns(spec):
    """Branch-point capture changes no statistic on programs that spawn
    and join a child.  With capture on, a snapshot taken after the
    SPAWN is restored onto a fresh instance, where the parent's
    fast-forward collects the SPAWN op the child is rebuilt from."""
    program = build_program(spec)
    off = ExplorationLimits(max_schedules=LIM.max_schedules,
                            snapshot_budget_bytes=0)
    for name in ("dfs", "hbr-caching", "dpor"):
        on_stats = make_explorer(name, program, LIM).run().to_dict()
        off_stats = make_explorer(name, program, off).run().to_dict()
        on_stats.pop("elapsed")
        off_stats.pop("elapsed")
        assert on_stats == off_stats, (name, spec)


def test_lazy_dpor_gap_counterexample_still_gapped():
    """If lazy-DPOR ever becomes exact on the pinned counterexample,
    this fails as a reminder to restore the exactness assertion above
    (and to delete the approximation caveat in lazy_dpor.py)."""
    program = build_program(LAZY_DPOR_GAP_SPEC)
    dfs = DFSExplorer(program, LIM)
    dfs.run()
    lazy = LazyDPORExplorer(program, LIM)
    lazy.run()
    assert frozenset(lazy._state_hashes) < frozenset(dfs._state_hashes)


# ---------------------------------------------------------------------------
# Channel/future programs: the same soundness bar for the
# message-passing vocabulary the sync-primitive protocol added.  Ops
# reference two channels (one bounded, one rendezvous) and one future;
# recv-without-send deadlocks, double closes crash with ChannelError,
# double sets with FutureError — all legitimate terminal states every
# sound explorer must agree on.
chan_op = st.sampled_from([
    ("send", 0), ("send", 1),
    ("recv", 0), ("recv", 1),
    ("close", 0), ("close", 1),
    ("fut_set", 0), ("fut_get", 0),
    ("write", 0),
])
chan_thread_body = st.lists(chan_op, min_size=1, max_size=3)
# 2-3 threads so MPMC contention (competing rendezvous receivers — the
# one semantics where enabledness inspects other threads' pending ops)
# is inside the soundness bar; <= 6 non-exit events keeps DFS
# exhaustive even though channel blocking prunes little
chan_program_spec = st.lists(chan_thread_body, min_size=2, max_size=3).filter(
    lambda spec: sum(len(body) for body in spec) <= 6
)


def build_chan_program(spec):
    def build(p):
        chans = [p.channel("c0", 1), p.channel("c1", 0)]
        fut = p.future("f")
        cell = p.var("cell", 0)

        def make_thread(ops, seed):
            def body(api):
                token = seed
                for op, idx in ops:
                    if op == "send":
                        token += 1
                        yield api.chan_send(chans[idx], token)
                    elif op == "recv":
                        yield api.chan_recv(chans[idx])
                    elif op == "close":
                        yield api.chan_close(chans[idx])
                    elif op == "fut_set":
                        token += 1
                        yield api.fut_set(fut, token)
                    elif op == "fut_get":
                        yield api.fut_get(fut)
                    else:  # write
                        token += 1
                        yield api.write(cell, token)
            return body

        for i, ops in enumerate(spec):
            p.thread(make_thread(ops, (i + 1) * 100))

    return Program("random_chan_prog", build)


@soundness_settings
@given(chan_program_spec)
@example(spec=[[("close", 0)], [("close", 0)]])       # double-close race
@example(spec=[[("fut_set", 0)], [("fut_set", 0)]])   # double-set race
@example(spec=[[("send", 1)], [("recv", 1)]])         # rendezvous pair
@example(spec=[[("send", 0), ("close", 0)],
               [("recv", 0), ("recv", 0)]])           # drain after close
# hypothesis-found regression: two threads crashing with *different*
# guest errors (ChannelError vs FutureError).  The crash EXITs are
# independent, so the state digest must not depend on which ran first
# — it once keyed the error mark on guest_failures[0] (schedule
# order), making DPOR see 2 states where DFS saw 3.  Crash types now
# live in the per-thread progress tuple; see Executor.finish.
@example(spec=[[("send", 0)],
               [("close", 0), ("fut_set", 0), ("fut_set", 0)]])
def test_channel_reducers_match_dfs_states(spec):
    program = build_chan_program(spec)
    dfs = DFSExplorer(program, LIM)
    stats = dfs.run()
    assert stats.exhausted, "generated channel program too large for DFS"
    baseline = frozenset(dfs._state_hashes)

    for explorer in (
        DPORExplorer(program, LIM),
        DPORExplorer(program, LIM, sleep_sets=False),
        HBRCachingExplorer(program, LIM, lazy=False),
        HBRCachingExplorer(program, LIM, lazy=True),
    ):
        explorer.run()
        found = frozenset(explorer._state_hashes)
        assert found == baseline, (
            f"{explorer.name} found {len(found)} states, DFS "
            f"{len(baseline)}; spec={spec!r}"
        )

    lazy = LazyDPORExplorer(program, LIM)
    lazy.run()
    lazy_found = frozenset(lazy._state_hashes)
    assert lazy_found <= baseline, (
        f"lazy-dpor reported unreachable states; spec={spec!r}"
    )
    assert lazy_found, f"lazy-dpor found no states; spec={spec!r}"


@soundness_settings
@given(program_spec, st.sampled_from([None, 7]))
@example(spec=LAZY_DPOR_GAP_SPEC, budget=None)
@example(spec=LAZY_DPOR_GAP_SPEC, budget=7)
def test_caching_matches_recursive_oracle(spec, budget):
    """(Lazy) HBR caching is the paper's recursive search: the same
    schedule sequence and statistics as ``OracleHBRCaching``, whether
    exhaustive or cut by a binding budget."""
    program = build_program(spec)
    lim = LIM if budget is None else ExplorationLimits(max_schedules=budget)
    for lazy in (False, True):
        kernel = HBRCachingExplorer(program, lim, lazy=lazy)
        kernel.schedule_sink = []
        got = kernel.run().to_dict()
        oracle = OracleHBRCaching(program, lim, lazy=lazy)
        want = oracle.run().to_dict()
        assert kernel.schedule_sink == oracle.schedule_log, spec
        got.pop("elapsed")
        want.pop("elapsed")
        assert got == want, spec


@soundness_settings
@given(program_spec)
def test_inequality_chain_on_random_programs(spec):
    program = build_program(spec)
    for explorer in (
        DPORExplorer(program, LIM),
        HBRCachingExplorer(program, LIM, lazy=True),
    ):
        stats = explorer.run()
        stats.verify_inequality()


@soundness_settings
@given(program_spec)
def test_dpor_schedule_count_never_exceeds_dfs(spec):
    program = build_program(spec)
    dfs = DFSExplorer(program, LIM).run()
    dpor = DPORExplorer(program, LIM).run()
    assert dpor.num_schedules <= dfs.num_schedules


def _fp_sets(stats):
    return stats.state_hashes, stats.hbr_fps, stats.lazy_fps


#: Lazy-HBR caching reaches one member of each lazy HBR, and which one
#: depends on the exploration order: split and serial runs of this
#: program reach different regular HBRs (same states and lazy HBRs).
LAZY_CACHING_ORDER_SPEC = [
    [(0, [("read", 0)]), (None, [("write", 1)])],
    [(0, [("read", 1)])],
]


@soundness_settings
@given(program_spec,
       st.sampled_from(["dfs", "hbr-caching", "lazy-hbr-caching",
                        "iterative-cb"]),
       st.sampled_from([2, 3]))
@example(spec=LAZY_CACHING_ORDER_SPEC, explorer_name="lazy-hbr-caching",
         k=2)
def test_split_shards_merge_to_serial_run(spec, explorer_name, k):
    """Seed breadth-first, split the frontier, and resume every shard
    from a JSON round-trip of its work items, which carry no live
    snapshot: the first shard on the seeding explorer, whose spine
    still holds snapshots from the breadth-first seed, the others on
    fresh explorers.  Neither acquisition order is depth-first, so
    every resume must find its ancestor on the spine by prefix.  The
    merged state, HBR and lazy-HBR sets equal the serial run's, except
    lazy-HBR caching's regular HBRs (see LAZY_CACHING_ORDER_SPEC)."""
    program = build_program(spec)
    serial = make_explorer(explorer_name, program, LIM).run()
    seed = make_explorer(explorer_name, program, LIM)
    merged = seed.run_seed(min_items=2 * k, max_schedules=8)
    if seed.frontier:
        strategy_state = seed.strategy.state_to_dict()
        for i, shard in enumerate(seed.frontier.split(k)):
            worker = seed if i == 0 else make_explorer(explorer_name,
                                                       program, LIM)
            worker.restore(json.loads(json.dumps({
                "version": SNAPSHOT_VERSION,
                "explorer": worker.name,
                "program": program.name,
                "frontier": shard.to_dict(),
                # the seeding explorer keeps counting from its seed
                # stats; fresh workers start from zero
                "stats": None,
                "strategy": strategy_state,
            })))
            stats = worker.run()
            if i == 0:
                merged = stats
            else:
                merged.merge(stats)
    got, want = _fp_sets(merged), _fp_sets(serial)
    if explorer_name == "lazy-hbr-caching":
        got, want = (got[0], got[2]), (want[0], want[2])
    assert got == want, (explorer_name, spec)


@soundness_settings
@given(program_spec)
def test_bounded_explorers_against_dfs(spec):
    """Unbounded preemption bounding is DFS in another order; bounded
    runs find a subset of DFS's states."""
    program = build_program(spec)
    dfs = DFSExplorer(program, LIM)
    dfs.schedule_sink = []
    base = dfs.run()
    assert base.exhausted

    unbounded = PreemptionBoundedExplorer(program, LIM, bound=None)
    unbounded.schedule_sink = []
    stats = unbounded.run()
    assert sorted(unbounded.schedule_sink) == sorted(dfs.schedule_sink)
    assert _fp_sets(stats) == _fp_sets(base), spec

    for explorer in (
        PreemptionBoundedExplorer(program, LIM, bound=2),
        DelayBoundedExplorer(program, LIM),
        IterativeContextBoundingExplorer(program, LIM),
    ):
        found = explorer.run().state_hashes
        assert found <= base.state_hashes, (explorer.name, spec)


# every round at or past a program's largest preemption count re-runs
# the whole DFS, so this property runs fewer, costlier examples
@settings(soundness_settings, max_examples=6)
@given(program_spec)
def test_iterative_bounding_converges_to_dfs(spec):
    """Iterative bounding up to a bound no schedule of these programs
    can exceed (at most 14 events, so at most 13 preemptions) finds
    exactly DFS's states, HBRs and lazy HBRs."""
    program = build_program(spec)
    base = DFSExplorer(program, LIM).run()
    full = IterativeContextBoundingExplorer(program, LIM, max_bound=14)
    assert _fp_sets(full.run()) == _fp_sets(base), spec
