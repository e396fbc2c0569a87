"""Tests for the exception hierarchy."""

import pytest

from repro.errors import (
    DeadlockError,
    GuestAssertionError,
    GuestError,
    InvalidOpError,
    ReproError,
    SchedulerError,
)


class TestHierarchy:
    def test_guest_errors_are_repro_errors(self):
        assert issubclass(GuestError, ReproError)
        assert issubclass(DeadlockError, GuestError)
        assert issubclass(GuestAssertionError, GuestError)

    def test_host_errors_are_not_guest_errors(self):
        for cls in (InvalidOpError, SchedulerError):
            assert issubclass(cls, ReproError)
            assert not issubclass(cls, GuestError)

    def test_deadlock_records_blocked_threads(self):
        e = DeadlockError([2, 0, 1])
        assert e.blocked_threads == (2, 0, 1)
        assert "deadlock" in str(e)

    def test_assertion_records_thread(self):
        e = GuestAssertionError(3, "boom")
        assert e.thread_id == 3
        assert str(e) == "boom"

    def test_assertion_default_message(self):
        e = GuestAssertionError(3)
        assert "thread 3" in str(e)

    def test_catching_guest_errors(self):
        with pytest.raises(GuestError):
            raise DeadlockError([0])
