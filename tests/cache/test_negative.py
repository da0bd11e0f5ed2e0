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
    def test_single_failure_trips_default_threshold(self, clock, fresh_registry):
        cache = NegativeSourceCache(ttl_ms=100.0, clock=clock)
        cache.record_failure("s1", "timeout", "deadline exceeded")
        reason = cache.skip_reason("s1")
        assert reason is not None
        assert "timeout" in reason and "deadline exceeded" in reason
        skips = fresh_registry.family("cache_negative_skips_total")
        assert skips.labels(source_id="s1").value == 1

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
        cache = NegativeSourceCache(ttl_ms=100.0, clock=clock)
        cache.record_failure("s1", "error")
        clock.now_ms = 100.0
        assert cache.skip_reason("s1") is None  # hold expired: probe again
        assert len(cache) == 0  # and the failure count reset with it

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

    def test_forget_drops_without_implying_health(self, clock):
        cache = NegativeSourceCache(ttl_ms=100.0, failure_threshold=3, clock=clock)
        cache.record_failure("s1", "error")
        cache.forget("s1")
        assert len(cache) == 0

    def test_skips_not_counted_when_not_skipping(self, clock, fresh_registry):
        cache = NegativeSourceCache(ttl_ms=100.0, clock=clock)
        assert cache.skip_reason("unknown") is None
        assert fresh_registry.family("cache_negative_skips_total") is None
