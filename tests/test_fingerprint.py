"""Tests for chained fingerprints and canonical HBR forms."""

from hypothesis import given, strategies as st

from repro.core.events import Event, OpKind
from repro.core.fingerprint import FingerprintChain, canonical_hbr


class TestFingerprintChain:
    def test_empty_chains_of_same_arity_agree(self):
        a, b = FingerprintChain(), FingerprintChain()
        a.ensure_thread(1)
        b.ensure_thread(1)
        assert a.prefix_fingerprint() == b.prefix_fingerprint()

    def test_update_changes_fingerprint(self):
        c = FingerprintChain()
        before = c.prefix_fingerprint()
        c.update(0, (1, 2, None), (1,))
        assert c.prefix_fingerprint() != before

    def test_same_updates_same_fingerprint(self):
        a, b = FingerprintChain(), FingerprintChain()
        for chain in (a, b):
            chain.update(0, (1, 2, None), (1,))
            chain.update(1, (3, 4, None), (1, 1))
        assert a.prefix_fingerprint() == b.prefix_fingerprint()

    def test_order_of_threads_does_not_collide(self):
        # same multiset of per-thread updates applied to different
        # threads must give different fingerprints
        a, b = FingerprintChain(), FingerprintChain()
        a.update(0, (1, 2, None), (1,))
        b.update(1, (1, 2, None), (0, 1))
        assert a.prefix_fingerprint() != b.prefix_fingerprint()

    def test_clock_matters(self):
        a, b = FingerprintChain(), FingerprintChain()
        a.update(0, (1, 2, None), (1, 0))
        b.update(0, (1, 2, None), (1, 5))
        assert a.prefix_fingerprint() != b.prefix_fingerprint()

    def test_event_count_tracked(self):
        c = FingerprintChain()
        assert c.event_count == 0
        c.update(0, (1, 1, None), (1,))
        assert c.event_count == 1

    def test_fork_is_independent(self):
        a = FingerprintChain()
        a.update(0, (1, 1, None), (1,))
        b = a.fork()
        assert a.prefix_fingerprint() == b.prefix_fingerprint()
        b.update(0, (1, 1, None), (2,))
        assert a.prefix_fingerprint() != b.prefix_fingerprint()

    @given(st.lists(st.tuples(st.integers(0, 3), st.integers(0, 5)),
                    max_size=20))
    def test_deterministic_across_instances(self, updates):
        a, b = FingerprintChain(), FingerprintChain()
        for chain in (a, b):
            for tid, label_part in updates:
                chain.update(tid, (label_part, 0, None), (tid + 1,))
        assert a.prefix_fingerprint() == b.prefix_fingerprint()


def _ev(tid, kind, clock, lazy_clock=None, value=None):
    return Event(0, tid, 0, kind, 1, None, value, clock,
                 clock if lazy_clock is None else lazy_clock)


class TestCanonicalHBR:
    def test_freeze_strips_trailing_empty_threads(self):
        # one entry per thread up to the last thread with events
        form = canonical_hbr([_ev(0, OpKind.WRITE, (1,)),
                              _ev(2, OpKind.READ, (1, 0, 1))])
        assert len(form) == 3 and form[1] == ()
        assert canonical_hbr([]) == ()

    def test_equal_relations_freeze_equal(self):
        # labels and clocks identify the relation; values do not
        a = [_ev(0, OpKind.WRITE, (1,), value=1),
             _ev(1, OpKind.READ, (1, 1), value=1)]
        b = [_ev(0, OpKind.WRITE, (1,), value=2),
             _ev(1, OpKind.READ, (1, 1), value=2)]
        assert canonical_hbr(a) == canonical_hbr(b)

    def test_different_clocks_freeze_different(self):
        a = [_ev(0, OpKind.WRITE, (1, 0))]
        b = [_ev(0, OpKind.WRITE, (1, 9))]
        assert canonical_hbr(a) != canonical_hbr(b)

    def test_lazy_form_reads_the_lazy_clocks(self):
        a = [_ev(1, OpKind.LOCK, (1, 1), lazy_clock=(0, 1))]
        b = [_ev(1, OpKind.LOCK, (0, 1), lazy_clock=(0, 1))]
        assert canonical_hbr(a) != canonical_hbr(b)
        assert canonical_hbr(a, lazy=True) == canonical_hbr(b, lazy=True)

    def test_freeze_is_hashable(self):
        hash(canonical_hbr([_ev(0, OpKind.WRITE, (1,))]))
