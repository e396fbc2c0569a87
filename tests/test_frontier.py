"""Frontier semantics: work-item serialization, snapshot/resume
round-trips, and split(k) disjointness/exhaustiveness — property-tested
over the small suite for every ported strategy."""

from __future__ import annotations

import json

import pytest

from repro.campaign.partial import checkpoint_control
from repro.explore import ExplorationLimits, Frontier, WorkItem
from repro.explore.base import ExplorationStats
from repro.explore.controller import (
    SPLITTABLE_EXPLORERS,
    make_explorer,
    supports_snapshot,
    supports_split,
)
from repro.suite import REGISTRY

#: small but non-trivial benchmarks (enough schedules that a tiny
#: budget genuinely truncates exploration)
BENCH_IDS = (1, 3, 24, 36, 47)

RESUMABLE = sorted(SPLITTABLE_EXPLORERS) + ["dpor", "lazy-dpor"]


def _fresh(explorer_name, bench_id, **lim):
    program = REGISTRY[bench_id].program
    return make_explorer(explorer_name, program,
                         ExplorationLimits(**lim) if lim
                         else ExplorationLimits())


class TestWorkItem:
    def test_round_trip(self):
        item = WorkItem((0, 1, 0), {"budget": 2, "prev": 1})
        clone = WorkItem.from_dict(json.loads(json.dumps(item.to_dict())))
        assert clone == item
        assert clone.prefix == (0, 1, 0)

    def test_list_annotations_round_trip(self):
        item = WorkItem((1,), {"backtrack": [0, 2], "chosen": 1})
        clone = WorkItem.from_dict(json.loads(json.dumps(item.to_dict())))
        assert clone == item

    def test_non_serializable_annotation_rejected(self):
        with pytest.raises(TypeError):
            WorkItem((0,), {"bad": object()}).to_dict()

    def test_hashable(self):
        a = WorkItem((0, 1), {"x": 1})
        b = WorkItem((0, 1), {"x": 1})
        assert len({a, b}) == 1


class TestFrontier:
    def _frontier(self, n=10):
        fr = Frontier()
        for i in range(n):
            fr.push(WorkItem((0,) * i + (1,), {"depth": i}))
        return fr

    def test_lifo(self):
        fr = self._frontier(3)
        assert fr.pop().annotation["depth"] == 2

    def test_round_trip(self):
        fr = self._frontier()
        clone = Frontier.from_dict(json.loads(json.dumps(fr.to_dict())))
        assert clone == fr

    def test_bad_version_rejected(self):
        with pytest.raises(ValueError):
            Frontier.from_dict({"version": 99, "items": []})

    @pytest.mark.parametrize("k", [1, 2, 3, 4, 7, 15])
    def test_split_disjoint_and_exhaustive(self, k):
        fr = self._frontier(10)
        original = list(fr)
        shards = fr.split(k)
        assert len(shards) == k
        dealt = [item for shard in shards for item in shard]
        # exhaustive: every item lands in exactly one shard
        assert sorted(dealt, key=lambda i: i.annotation["depth"]) == original
        # disjoint: no duplicates
        assert len(set(dealt)) == len(original)

    def test_split_preserves_relative_order(self):
        fr = self._frontier(9)
        for shard in fr.split(3):
            depths = [item.annotation["depth"] for item in shard]
            assert depths == sorted(depths)

    def test_split_k1_is_identity(self):
        fr = self._frontier(5)
        (only,) = fr.split(1)
        assert only == fr

    def test_split_invalid_k(self):
        with pytest.raises(ValueError):
            self._frontier().split(0)

    def test_pop_shallowest(self):
        fr = Frontier()
        fr.push(WorkItem((0, 1, 2), {}))
        fr.push(WorkItem((1,), {}))
        fr.push(WorkItem((0, 1), {}))
        assert fr.pop_shallowest().prefix == (1,)
        assert fr.pop_shallowest().prefix == (0, 1)

    def test_pop_shallowest_matches_reference_scan(self):
        """Split-seeding determinism regression: pop_shallowest must
        pop the exact item a plain-list reference model would —
        shortest prefix, first such in stack order — under arbitrary
        interleavings of push / pop_shallowest / pop, with len() and
        serialization agreeing at every step."""
        import random

        rng = random.Random(20260731)
        for _ in range(50):
            fr = Frontier()
            model = []          # reference: plain list in stack order

            def ref_pop_shallowest():
                best = min(range(len(model)),
                           key=lambda i: len(model[i].prefix))
                return model.pop(best)

            counter = 0
            for _ in range(rng.randrange(5, 120)):
                roll = rng.random()
                if roll < 0.55 or not model:
                    depth = rng.randrange(0, 6)
                    item = WorkItem(
                        tuple(rng.randrange(3) for _ in range(depth)),
                        {"n": counter},
                    )
                    counter += 1
                    fr.push(item)
                    model.append(item)
                elif roll < 0.85:
                    assert fr.pop_shallowest() == ref_pop_shallowest()
                else:
                    # a LIFO pop mid-stream takes the newest item
                    assert fr.pop() == model.pop()
                assert len(fr) == len(model)
                assert bool(fr) == bool(model)
            # leaving seeding mode: order and serialization intact
            assert list(fr) == model
            assert fr.to_dict() == Frontier(model).to_dict()
            assert fr == Frontier(model)

    def test_pop_shallowest_empty_raises(self):
        with pytest.raises(IndexError):
            Frontier().pop_shallowest()
        fr = Frontier()
        fr.push(WorkItem((1,), {}))
        fr.pop_shallowest()
        with pytest.raises(IndexError):
            fr.pop_shallowest()

    def test_seed_split_deterministic_end_to_end(self):
        """Two independent seed runs of the same cell grow and split
        identical frontiers (the campaign's resume correctness relies
        on this)."""
        from repro.explore.dfs import DFSExplorer
        from repro.suite import REGISTRY

        def seeded_shards():
            ex = DFSExplorer(REGISTRY[13].program, ExplorationLimits())
            stats = ex.run_seed(min_items=24, max_schedules=64)
            return ([s.to_dict() for s in ex.frontier.split(4)],
                    stats.to_dict())

        shards_a, stats_a = seeded_shards()
        shards_b, stats_b = seeded_shards()
        stats_a.pop("elapsed")
        stats_b.pop("elapsed")
        assert shards_a == shards_b
        assert stats_a == stats_b


class TestSnapshotResume:
    """Serialization round-trip resumes to the identical remaining
    schedule set: interrupted-then-resumed == uninterrupted."""

    @pytest.mark.parametrize("explorer_name", RESUMABLE)
    @pytest.mark.parametrize("bench_id", BENCH_IDS)
    def test_resume_equals_uninterrupted(self, explorer_name, bench_id):
        assert supports_snapshot(explorer_name)
        full = _fresh(explorer_name, bench_id, max_schedules=500)
        full_stats = full.run()

        part = _fresh(explorer_name, bench_id, max_schedules=7)
        part_stats = part.run()
        if not part_stats.limit_hit:
            pytest.skip("cell exhausted before the interrupt budget")
        # the snapshot must survive a JSON round trip (that is how the
        # campaign store persists it)
        snapshot = json.loads(json.dumps(part.snapshot()))

        resumed = _fresh(explorer_name, bench_id, max_schedules=500)
        resumed.restore(snapshot)
        resumed_stats = resumed.run()

        full_dict = full_stats.to_dict()
        resumed_dict = resumed_stats.to_dict()
        full_dict.pop("elapsed")
        resumed_dict.pop("elapsed")
        assert full_dict == resumed_dict

    def test_double_interrupt_resume(self):
        # resume from a resume: 252-schedule DFS cell in three slices
        full = _fresh("dfs", 3).run()
        ex = _fresh("dfs", 3, max_schedules=20)
        ex.run()
        for budget in (90, 100_000):
            snap = json.loads(json.dumps(ex.snapshot()))
            ex = _fresh("dfs", 3, max_schedules=budget)
            ex.restore(snap)
            ex.run()
        assert ex.stats.num_schedules == full.num_schedules
        assert ex.stats.hbr_fps == full.hbr_fps
        assert ex.stats.exhausted

    def test_restore_rejects_wrong_explorer(self):
        ex = _fresh("dfs", 1, max_schedules=2)
        ex.run()
        snap = ex.snapshot()
        other = _fresh("hbr-caching", 1)
        with pytest.raises(ValueError):
            other.restore(snap)

    def test_restore_rejects_bad_version(self):
        ex = _fresh("dfs", 1)
        with pytest.raises(ValueError):
            ex.restore({"version": 999})

    def test_kernel_snapshot_shape(self):
        ex = _fresh("dfs", 3, max_schedules=5)
        ex.run()
        snap = ex.snapshot()
        assert snap["explorer"] == "dfs"
        assert snap["frontier"]["items"]
        assert snap["stats"]["num_schedules"] == 5
        # a shard payload is the snapshot of its frontier part, without
        # statistics
        assert ex.shard_states([ex.frontier]) == [{**snap, "stats": None}]


class TestSplitShards:
    """split(k) shards are disjoint, exhaustive, and merge to the
    unsplit run's aggregate sets for every splittable strategy (for
    lazy-HBR caching: its states and lazy HBRs)."""

    @pytest.mark.parametrize("explorer_name",
                             sorted(SPLITTABLE_EXPLORERS))
    @pytest.mark.parametrize("bench_id", BENCH_IDS)
    @pytest.mark.parametrize("k", [2, 4])
    def test_shards_merge_to_unsplit_sets(self, explorer_name, bench_id,
                                          k):
        assert supports_split(explorer_name)
        unsplit = _fresh(explorer_name, bench_id).run()

        # a cell whose whole space is too small for a k*4-item seed
        # falls back to a k-item seed, which still deals every shard
        for min_items in (k * 4, k):
            seed = _fresh(explorer_name, bench_id)
            seed_stats = seed.run_seed(min_items=min_items,
                                       max_schedules=32)
            if seed.frontier:
                break
        else:
            pytest.skip("cell exhausted during seeding")
        merged = ExplorationStats.from_dict(seed_stats.to_dict())
        merged.exhausted = True
        schedule_sets = []
        for shard in seed.shard_states(seed.frontier.split(k)):
            worker = _fresh(explorer_name, bench_id)
            worker.schedule_sink = []
            worker.restore(json.loads(json.dumps(shard)))
            merged.merge(worker.run())
            schedule_sets.append(
                {tuple(s) for s in worker.schedule_sink}
            )
        # aggregate sets equal the unsplit run's.  Lazy-HBR caching
        # reaches one member of each lazy HBR, and which one depends
        # on the exploration order, so a split run may reach other
        # regular HBRs (LAZY_CACHING_ORDER_SPEC in
        # test_random_program_soundness pins a program where it does)
        if explorer_name != "lazy-hbr-caching":
            assert merged.hbr_fps == unsplit.hbr_fps
        assert merged.lazy_fps == unsplit.lazy_fps
        assert merged.state_hashes == unsplit.state_hashes
        assert ({(e.kind, e.message) for e in merged.errors}
                == {(e.kind, e.message) for e in unsplit.errors})
        # iterative-cb never reports exhaustion (it re-explores across
        # rounds, matching the pre-kernel explorer)
        assert merged.exhausted == unsplit.exhausted
        # non-pruning strategies partition the schedule set exactly
        if explorer_name in ("dfs", "preempt-bounded", "iterative-cb",
                             "delay-bounded"):
            assert merged.num_schedules == unsplit.num_schedules

    @pytest.mark.parametrize("k", [2, 4])
    def test_dfs_shard_schedules_pairwise_disjoint(self, k):
        seed = _fresh("dfs", 3)
        seed.run_seed(min_items=k * 4, max_schedules=32)
        shard_schedules = []
        for shard in seed.shard_states(seed.frontier.split(k)):
            worker = _fresh("dfs", 3)
            worker.schedule_sink = []
            worker.restore(shard)
            worker.run()
            shard_schedules.append(
                {tuple(s) for s in worker.schedule_sink}
            )
        for i in range(len(shard_schedules)):
            for j in range(i + 1, len(shard_schedules)):
                assert not (shard_schedules[i] & shard_schedules[j])


class TestPeriodicCheckpoint:
    """Every periodic snapshot — not just the final budget-limit one —
    must resume to the identical remaining schedule set.  (Regressions:
    checkpointing after the pop lost the in-flight item's subtree, and
    a DPOR snapshot taken before the first schedule resumed to an
    empty run.)"""

    @pytest.mark.parametrize("explorer_name", ["dfs", "lazy-hbr-caching",
                                               "dpor", "lazy-dpor"])
    def test_every_periodic_snapshot_resumes_identically(self,
                                                         explorer_name):
        reference = _fresh(explorer_name, 3).run()
        ex = _fresh(explorer_name, 3)
        snapshots = []
        ex.set_control(checkpoint_control(snapshots.append, interval=0.0))
        ex.run()
        assert len(snapshots) > 10
        for snap in snapshots[:: max(1, len(snapshots) // 8)]:
            resumed = _fresh(explorer_name, 3)
            resumed.restore(json.loads(json.dumps(snap)))
            stats = resumed.run()
            assert stats.num_schedules == reference.num_schedules, \
                f"snapshot at {snap['stats']['num_schedules']} diverged"
            assert stats.hbr_fps == reference.hbr_fps
            assert stats.state_hashes == reference.state_hashes
            assert stats.exhausted


class TestAbortRollback:
    """A mid-schedule deadline abort must roll back the aborted
    schedule's cache insertions — otherwise the re-executed schedule
    prunes its own subtree on resume.  (Regression.)  DPOR's loop
    compiles its deadline probe out when no deadline is set, so an
    instance-level override must still fire there."""

    @pytest.mark.parametrize("explorer_name", ["hbr-caching",
                                               "lazy-hbr-caching",
                                               "dpor", "lazy-dpor"])
    @pytest.mark.parametrize("fire_at", [1, 3, 7])
    def test_abort_then_resume_matches_uninterrupted(self, explorer_name,
                                                     fire_at):
        reference = _fresh(explorer_name, 3).run()

        ex = _fresh(explorer_name, 3)
        # force exactly one mid-schedule abort at a deterministic
        # scheduling point (instance-level probe override)
        calls = {"n": 0, "fired": False}

        def probe():
            calls["n"] += 1
            if not calls["fired"] and calls["n"] == 40 + fire_at:
                calls["fired"] = True
                ex.stats.limit_hit = True
                return True
            return False

        ex._deadline_exceeded_midschedule = probe
        ex.run()
        assert calls["fired"]
        assert ex.stats.limit_hit

        snap = json.loads(json.dumps(ex.snapshot()))
        resumed = _fresh(explorer_name, 3)
        resumed.restore(snap)
        stats = resumed.run()
        assert stats.num_schedules == reference.num_schedules
        assert stats.hbr_fps == reference.hbr_fps
        assert stats.lazy_fps == reference.lazy_fps
        assert stats.state_hashes == reference.state_hashes
        assert stats.exhausted


class TestMidScheduleDeadline:
    """`max_seconds` must interrupt one long schedule, not just check
    between schedules (the old wall-clock budget hole)."""

    def test_kernel_deadline_fires_mid_schedule(self):
        import time

        from repro.runtime.program import Program

        def build(p):
            x = p.var("x", 0)

            def spin(api, n):
                for i in range(5_000):
                    yield api.write(x, i)

            p.thread(spin, 0)
            p.thread(spin, 1)

        program = Program("spinner", build)
        ex = make_explorer(
            "dfs", program,
            ExplorationLimits(max_seconds=0.02,
                              max_events_per_schedule=1_000_000),
        )
        t0 = time.monotonic()
        stats = ex.run()
        elapsed = time.monotonic() - t0
        assert stats.limit_hit
        # one schedule is >=10k events; without the mid-schedule check
        # the first schedule alone would have to finish.  The abort
        # must come quickly and leave a resumable frontier.
        assert elapsed < 1.0
        assert ex.frontier
        stats.verify_inequality()

    def test_dpor_deadline_fires_mid_schedule(self):
        import time

        from repro.runtime.program import Program

        def build(p):
            x = p.var("x", 0)

            def spin(api, n):
                for i in range(3_000):
                    yield api.write(x, i)

            p.thread(spin, 0)
            p.thread(spin, 1)

        program = Program("spinner", build)
        ex = make_explorer(
            "dpor", program,
            ExplorationLimits(max_seconds=0.02,
                              max_events_per_schedule=1_000_000),
        )
        t0 = time.monotonic()
        stats = ex.run()
        assert stats.limit_hit
        assert time.monotonic() - t0 < 2.0
        stats.verify_inequality()

    def test_aborted_schedule_not_counted(self):
        from repro.runtime.program import Program

        def build(p):
            x = p.var("x", 0)

            def spin(api, n):
                for i in range(5_000):
                    yield api.write(x, i)

            p.thread(spin, 0)
            p.thread(spin, 1)

        program = Program("spinner", build)
        ex = make_explorer(
            "dfs", program,
            ExplorationLimits(max_seconds=0.005,
                              max_events_per_schedule=1_000_000),
        )
        stats = ex.run()
        # the in-flight schedule was abandoned and un-counted, so a
        # resumed run re-executes it: counts stay consistent
        assert stats.num_complete == stats.num_schedules
