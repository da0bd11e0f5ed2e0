"""Negative caching: thresholds, expiry-driven re-probes, success resets."""

import pytest

from repro.cache import NegativeSourceCache


class FakeClock:
    def __init__(self) -> None:
        self.now_ms = 0.0

    def __call__(self) -> float:
        return self.now_ms


@pytest.fixture
def clock():
    return FakeClock()


class TestThreshold:
    def test_single_failure_trips_default_threshold(self, clock):
        cache = NegativeSourceCache(ttl_ms=100.0, clock=clock)
        cache.record_failure("s1", "timeout", "deadline exceeded")
        reason = cache.skip_reason("s1")
        assert reason is not None
        assert "timeout" in reason and "deadline exceeded" in reason

    def test_threshold_above_one_tolerates_a_flake(self, clock):
        cache = NegativeSourceCache(ttl_ms=100.0, failure_threshold=2, clock=clock)
        cache.record_failure("s1", "error")
        assert cache.skip_reason("s1") is None  # one flake forgiven
        cache.record_failure("s1", "error")
        assert cache.skip_reason("s1") is not None
        assert cache.down_sources() == ["s1"]

    def test_validation(self):
        with pytest.raises(ValueError):
            NegativeSourceCache(ttl_ms=0)
        with pytest.raises(ValueError):
            NegativeSourceCache(failure_threshold=0)


class TestExpiry:
    def test_expired_entry_earns_a_fresh_probe(self, clock):
        cache = NegativeSourceCache(ttl_ms=100.0, failure_threshold=2, clock=clock)
        cache.record_failure("s1", "error")
        cache.record_failure("s1", "error")
        clock.now_ms = 100.0
        assert cache.skip_reason("s1") is None  # hold expired: probe again
        assert cache.down_sources() == []
        # The probe's failure starts a clean count: one flake is forgiven.
        assert cache.record_failure("s1", "error").failures == 1
        assert cache.skip_reason("s1") is None

    def test_hold_extends_on_repeat_failures(self, clock):
        cache = NegativeSourceCache(ttl_ms=100.0, clock=clock)
        cache.record_failure("s1", "error")
        clock.now_ms = 80.0
        cache.record_failure("s1", "error")  # re-probed and failed again
        clock.now_ms = 120.0
        assert cache.skip_reason("s1") is not None  # held until 180


class TestReset:
    def test_success_clears_the_record(self, clock):
        cache = NegativeSourceCache(ttl_ms=100.0, clock=clock)
        cache.record_failure("s1", "error")
        cache.record_success("s1")
        assert cache.skip_reason("s1") is None
        assert len(cache) == 0

    def test_skips_not_counted_when_not_skipping(self, clock):
        """``skip_reason`` is a query: held, expired or unknown, asking
        again gives the same answer and leaves the entries as they were
        (the skip is recorded by the search that makes it)."""
        cache = NegativeSourceCache(ttl_ms=100.0, clock=clock)
        cache.record_failure("s1", "error")
        for now_ms in (50.0, 100.0):
            clock.now_ms = now_ms
            entries = {sid: vars(entry).copy() for sid, entry in cache._entries.items()}
            answers = [cache.skip_reason(sid) for sid in ("s1", "unknown") * 2]
            assert answers[:2] == answers[2:] and answers[1] is None
            assert {sid: vars(e) for sid, e in cache._entries.items()} == entries
