"""Tests for error-schedule minimisation."""

import pytest

from repro import Program, execute
from repro.explore import DPORExplorer, ExplorationLimits, minimize_schedule
from repro.suite.bank import bank_racy
from repro.suite.channels import chan_close_race, chan_producer_consumer
from repro.suite.locks import lock_order_deadlock
from repro.suite.mutual_exclusion import peterson
from repro.suite import REGISTRY


def find_error_schedule(program):
    stats = DPORExplorer(
        program, ExplorationLimits(max_schedules=30_000)
    ).run()
    assert stats.errors
    return stats.errors[0]


class TestMinimization:
    def test_deadlock_schedule_shrinks(self):
        program = lock_order_deadlock()
        finding = find_error_schedule(program)
        result = minimize_schedule(program, finding.schedule)
        assert result.error_kind == "DeadlockError"
        assert len(result.schedule) <= len(finding.schedule)
        # the minimized schedule still deadlocks when replayed
        r = execute(program, schedule=result.schedule)
        assert r.error is not None

    def test_assertion_schedule_shrinks_and_reproduces(self):
        program = bank_racy(2)
        finding = find_error_schedule(program)
        result = minimize_schedule(program, finding.schedule)
        assert result.error_kind == "GuestAssertionError"
        r = execute(program, schedule=result.schedule)
        assert type(r.error).__name__ == "GuestAssertionError"

    def test_peterson_violation_shrinks(self):
        program = peterson(buggy=True)
        finding = find_error_schedule(program)
        result = minimize_schedule(program, finding.schedule)
        r = execute(program, schedule=result.schedule)
        assert type(r.error).__name__ == "GuestAssertionError"
        assert len(result.schedule) <= len(finding.schedule)

    def test_channel_bug_schedule_shrinks(self):
        # the seeded lost-update producer-consumer bug over a bounded
        # channel: DPOR finds it, the minimizer shrinks the witness
        program = chan_producer_consumer(1, 1, buggy=True)
        finding = find_error_schedule(program)
        result = minimize_schedule(program, finding.schedule)
        assert result.error_kind == "GuestAssertionError"
        assert len(result.schedule) <= len(finding.schedule)
        r = execute(program, schedule=result.schedule)
        assert type(r.error).__name__ == "GuestAssertionError"

    def test_channel_close_race_shrinks(self):
        program = chan_close_race(eager_close=True)
        finding = find_error_schedule(program)
        result = minimize_schedule(program, finding.schedule)
        assert result.error_kind == "ChannelError"
        r = execute(program, schedule=result.schedule)
        assert type(r.error).__name__ == "ChannelError"

    def test_non_failing_schedule_rejected(self, figure1_program):
        full = execute(figure1_program).schedule
        with pytest.raises(ValueError):
            minimize_schedule(figure1_program, full)

    def test_reduction_pct(self):
        program = lock_order_deadlock()
        finding = find_error_schedule(program)
        # pad the failing schedule with redundant explicit choices
        padded = finding.schedule + execute(
            program, schedule=finding.schedule
        ).schedule[len(finding.schedule):]
        result = minimize_schedule(program, padded)
        assert 0.0 <= result.reduction_pct <= 100.0
        assert result.replays >= 1

    def test_error_needing_no_steering_minimizes_to_empty(self):
        # a program that fails under the default first-enabled policy
        def build(p):
            x = p.var("x", 0)

            def t(api):
                yield api.read(x)
                api.guest_assert(False, "always")

            p.thread(t)

        program = Program("always_fails", build)
        result = minimize_schedule(program, [0, 0])
        assert result.schedule == []

    def test_replay_budget_respected(self):
        program = bank_racy(2)
        finding = find_error_schedule(program)
        result = minimize_schedule(program, finding.schedule, max_replays=5)
        assert result.replays <= 6


class TestTimedBugWitness:
    """The seeded lease-expiry timeout bug (suite id 89): DPOR finds
    it, the minimizer shrinks the witness, and the shrunk schedule
    reproduces byte-identically on every execution configuration —
    both clock-engine backends, snapshots on and off, and the serial
    campaign path."""

    @pytest.fixture(scope="class")
    def witness(self):
        program = REGISTRY[89].program
        finding = find_error_schedule(program)
        assert finding.kind == "GuestAssertionError"
        result = minimize_schedule(program, finding.schedule)
        return program, finding, result

    def test_minimizer_shrinks_the_timeout_witness(self, witness):
        program, finding, result = witness
        assert result.error_kind == "GuestAssertionError"
        assert len(result.schedule) <= len(finding.schedule)
        r = execute(program, schedule=result.schedule)
        assert type(r.error).__name__ == "GuestAssertionError"
        assert "lease stolen" in str(r.error)

    def test_witness_reproduces_on_every_configuration(self, witness):
        from repro.core.engines import available_backends
        from repro.runtime.executor import Executor

        program, _, result = witness
        # execute() completes the minimized prefix with the first-enabled
        # policy; base.schedule is the fully-recorded schedule
        base = execute(program, schedule=result.schedule)
        signature = (base.hbr_fp, base.lazy_fp, base.state_hash)
        configs = [{"engine": e} for e in available_backends()]
        for kwargs in configs + [{"snapshots": True}]:
            ex = Executor(program, **kwargs)
            for tid in base.schedule:
                ex.step(tid)
            r = ex.finish()
            assert (r.hbr_fp, r.lazy_fp, r.state_hash) == signature, kwargs
            assert type(r.error).__name__ == "GuestAssertionError"

    def test_campaign_cell_finds_the_same_bug(self):
        from repro.campaign import CampaignCell, execute_cell
        from repro.explore.controller import run_single

        lim = ExplorationLimits(max_schedules=30_000)
        serial = run_single(REGISTRY[89].program, "dpor", lim)
        cell = execute_cell(CampaignCell(89, "dpor", 0), lim)
        assert cell.ok, cell.error
        assert {e.kind for e in serial.errors} == {"GuestAssertionError"}
        assert {e.kind for e in cell.stats.errors} == {"GuestAssertionError"}
        assert cell.stats.state_hashes == serial.state_hashes
        assert sorted(e.schedule for e in cell.stats.errors) == \
            sorted(e.schedule for e in serial.errors)
