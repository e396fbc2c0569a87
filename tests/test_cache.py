"""Tests for the fingerprint cache."""

from repro.core.cache import FingerprintCache


class TestFingerprintCache:
    def test_insert_new_returns_true(self):
        c = FingerprintCache()
        assert c.insert(42)
        assert 42 in c
        assert len(c) == 1

    def test_insert_duplicate_returns_false(self):
        c = FingerprintCache()
        c.insert(42)
        assert not c.insert(42)
        assert c.hits == 1
        assert c.misses == 1

    def test_stats_accumulate(self):
        c = FingerprintCache()
        for v in (1, 2, 1, 1, 3):
            c.insert(v)
        assert c.misses == 3
        assert c.hits == 2
        assert len(c) == 3

    def test_clear(self):
        c = FingerprintCache()
        c.insert(1)
        c.insert(1)
        c.clear()
        assert len(c) == 0
        assert c.hits == 0 and c.misses == 0
