"""Virtual time (DESIGN.md §12): determinism, timed-operation
semantics, and the unsupported-timeout contract.

The headline property is replay determinism: for any timed benchmark
and any recorded schedule, re-executing that schedule must produce an
identical time-event sequence (fire order *and* the virtual-clock
value at each fire), identical fingerprints and an identical state
hash — on every available clock-engine backend, and across a
COW-snapshot round-trip.  Virtual time is part of the explored
state, so any wall-clock leak here would silently break replay and
partial-order reduction.
"""

import pickle

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.engines import available_backends
from repro.core.events import TICKS_PER_SECOND, TIMED_OUT, OpKind, to_ticks
from repro.errors import UnsupportedTimeoutError
from repro.runtime.executor import Executor
from repro.runtime.program import Program
from repro.runtime.schedule import RandomScheduler, execute
from repro.shim import program_from_function
from repro.shim import queue as shim_queue
from repro.shim import threading as shim_threading
from repro.suite import REGISTRY

#: the timed suite family (suite/timed.py)
TIMED_IDS = tuple(range(89, 97))
TIME_KINDS = (OpKind.SLEEP, OpKind.TIME_FIRE, OpKind.TIMER_TICK)


def fire_order(result):
    """The time-event subsequence of a trace: (tid, kind, clock-after)."""
    return [(e.tid, e.kind, e.value) for e in result.events
            if e.kind in TIME_KINDS]


class TestScheduleDeterminism:
    @settings(max_examples=50, deadline=None)
    @given(bid=st.sampled_from(TIMED_IDS), seed=st.integers(0, 2**31 - 1))
    def test_same_schedule_same_time_everywhere(self, bid, seed):
        prog = REGISTRY[bid].program
        base = execute(prog, scheduler=RandomScheduler(seed))
        fires = fire_order(base)
        signature = (base.hbr_fp, base.lazy_fp, base.state_hash)

        # every clock-engine backend replays the schedule byte-identically
        for engine in available_backends():
            ex = Executor(prog, engine=engine)
            for tid in base.schedule:
                ex.step(tid)
            r = ex.finish()
            assert (r.hbr_fp, r.lazy_fp, r.state_hash) == signature, engine
            assert fire_order(r) == fires, engine

        # a snapshot cut mid-schedule restores the virtual clock exactly
        cut = len(base.schedule) // 2
        ex = Executor(prog, snapshots=True)
        for tid in base.schedule[:cut]:
            ex.step(tid)
        resumed = Executor.from_snapshot(ex.snapshot())
        for tid in base.schedule[cut:]:
            resumed.step(tid)
        r = resumed.finish()
        assert (r.hbr_fp, r.lazy_fp, r.state_hash) == signature, "snapshot"

    @settings(max_examples=25, deadline=None)
    @given(bid=st.sampled_from(TIMED_IDS), seed=st.integers(0, 2**31 - 1))
    def test_clock_is_schedule_determined_not_wall_time(self, bid, seed):
        """Two executions of the same schedule see identical clocks even
        though arbitrary wall time passes between them."""
        prog = REGISTRY[bid].program
        first = execute(prog, scheduler=RandomScheduler(seed))
        second = execute(prog, schedule=first.schedule)
        assert fire_order(second) == fire_order(first)
        assert second.state_hash == first.state_hash


# ---------------------------------------------------------------------------
# timed-operation semantics on hand-built schedules
# ---------------------------------------------------------------------------

def _timed_lock_program():
    def build(p):
        m = p.mutex("m")
        won = p.var("won", -1)

        def holder(api):
            yield api.lock(m)
            yield api.write(won, 99)   # a step to schedule around
            yield api.unlock(m)

        def contender(api):
            got = yield api.lock(m, timeout=0.25)
            yield api.write(won, got is not False)
            if got is not False:
                yield api.unlock(m)

        p.thread(holder)
        p.thread(contender)

    return Program("vt_timed_lock", build)


def _terminal_results(program, cap=500):
    """Exhaustively enumerate terminal schedules (tiny programs only)."""
    out = []

    def rec(sched):
        if len(out) >= cap:
            return
        ex = Executor(program)
        for tid in sched:
            ex.step(tid)
        if ex.is_done():
            out.append(ex.finish())
            return
        for tid in list(ex.enabled()):
            rec(sched + [tid])

    rec([])
    return out


class TestTimedSemantics:
    def test_both_branches_are_explorable(self):
        """Timeout-fires and base-op-wins are both reachable terminal
        states of the same program — a scheduling branch, not a race."""
        results = _terminal_results(_timed_lock_program())
        won = {r.final_state["won"] is not False for r in results
               if r.final_state["won"] != 99}
        assert won == {True, False}

    def test_timeout_branch_emits_exactly_one_time_fire(self):
        """A timed-out acquire shows up in the trace as one TIME_FIRE
        delivering the primitive's timeout result (False for a mutex);
        schedules where the acquire won carry no TIME_FIRE at all."""
        saw_fire = saw_win = False
        for r in _terminal_results(_timed_lock_program()):
            fires = [e for e in r.events if e.kind == OpKind.TIME_FIRE]
            if fires:
                saw_fire = True
                assert len(fires) == 1
                assert fires[0].value is False
            else:
                saw_win = True
        assert saw_fire and saw_win

    def test_sleep_advances_clock_relatively(self):
        def build(p):
            def sleeper(api):
                yield api.sleep(0.5)
                yield api.sleep(0.25)

            p.thread(sleeper)

        r = execute(Program("vt_two_sleeps", build))
        assert [v for (_, _, v) in fire_order(r)] == [
            to_ticks(0.5), to_ticks(0.5) + to_ticks(0.25)]

    def test_timed_out_is_a_pickle_stable_singleton(self):
        assert pickle.loads(pickle.dumps(TIMED_OUT)) is TIMED_OUT

    def test_to_ticks(self):
        assert to_ticks(1.0) == TICKS_PER_SECOND
        assert to_ticks(0.000001) == 1
        assert to_ticks(0.0) == 0


# ---------------------------------------------------------------------------
# the unsupported-timeout contract (every shim path either routes onto
# the virtual clock or names the stdlib site and a supported alternative)
# ---------------------------------------------------------------------------

class TestUnsupportedTimeoutContract:
    def _expect(self, fn, pattern):
        with pytest.raises(UnsupportedTimeoutError, match=pattern):
            execute(program_from_function(fn))

    def test_barrier_constructor_names_alternative(self):
        def main():
            shim_threading.Barrier(2, timeout=1.0)

        self._expect(
            main,
            r"threading\.Barrier.*nearest supported alternative.*"
            r"Event\.wait\(timeout=\)",
        )

    def test_barrier_wait_names_alternative(self):
        def main():
            b = shim_threading.Barrier(1)
            b.wait(timeout=1.0)

        self._expect(
            main,
            r"threading\.Barrier\.wait.*nearest supported alternative",
        )

    def test_condition_wait_for_names_loop_alternative(self):
        def main():
            cond = shim_threading.Condition()
            with cond:
                cond.wait_for(lambda: True, timeout=1.0)

        self._expect(
            main,
            r"threading\.Condition\.wait_for.*"
            r"Condition\.wait\(timeout=\)",
        )

    def test_negative_timeout_rejected_threading_style(self):
        def main():
            shim_threading.Lock().acquire(timeout=-0.5)

        err = execute(program_from_function(main)).error
        assert "timeout value must be non-negative" in str(err)

    def test_negative_timeout_rejected_queue_style(self):
        def main():
            shim_queue.Queue().get(timeout=-1)

        err = execute(program_from_function(main)).error
        assert "'timeout' must be a non-negative number" in str(err)
