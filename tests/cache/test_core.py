"""The bounded LRU+TTL behaviour of the result cache: eviction order,
three-state reads, invalidation."""

import pytest

from repro.cache import FRESH, MISS, STALE, QueryResultCache


class FakeClock:
    def __init__(self, now_ms: float = 0.0) -> None:
        self.now_ms = now_ms

    def __call__(self) -> float:
        return self.now_ms

    def advance(self, delta_ms: float) -> None:
        self.now_ms += delta_ms


@pytest.fixture
def clock():
    return FakeClock()


class TestLru:
    def test_miss_then_hit(self, clock):
        cache = QueryResultCache(clock=clock)
        assert cache.lookup("k") == (None, MISS)
        cache.store("k", 42)
        assert cache.lookup("k") == (42, FRESH)

    def test_capacity_evicts_least_recently_used(self, clock):
        cache = QueryResultCache(capacity=2, clock=clock)
        cache.store("a", 1)
        cache.store("b", 2)
        cache.lookup("a")  # promote a; b is now the LRU victim
        evicted = cache.store("c", 3)
        assert evicted == 1
        assert "a" in cache and "c" in cache and "b" not in cache

    def test_overwrite_does_not_evict(self, clock):
        cache = QueryResultCache(capacity=2, clock=clock)
        cache.store("a", 1)
        cache.store("b", 2)
        assert cache.store("a", 10) == 0
        assert cache.lookup("a") == (10, FRESH)
        assert len(cache) == 2

    def test_validation(self):
        with pytest.raises(ValueError):
            QueryResultCache(capacity=0)


class TestTtl:
    def test_fresh_until_expiry(self, clock):
        cache = QueryResultCache(ttl_ms=100.0, clock=clock)
        cache.store("k", 1)
        clock.advance(100.0)
        assert cache.lookup("k") == (1, FRESH)

    def test_expired_is_a_miss_and_drops_the_entry(self, clock):
        cache = QueryResultCache(ttl_ms=100.0, stale_grace_ms=0.0, clock=clock)
        cache.store("k", 1)
        clock.advance(101.0)
        assert cache.lookup("k") == (None, MISS)
        assert "k" not in cache

    def test_stale_within_grace_window(self, clock):
        cache = QueryResultCache(ttl_ms=100.0, stale_grace_ms=100.0, clock=clock)
        cache.store("k", 1)
        clock.advance(150.0)
        assert cache.lookup("k") == (1, STALE)
        assert "k" in cache  # the stale entry is kept for revalidation

    def test_stale_read_does_not_promote(self, clock):
        cache = QueryResultCache(
            capacity=2, ttl_ms=100.0, stale_grace_ms=100.0, clock=clock
        )
        cache.store("a", 1)
        cache.store("b", 2)
        clock.advance(150.0)
        assert cache.lookup("a") == (1, STALE)
        cache.store("c", 3)
        assert "a" not in cache and "b" in cache

    def test_beyond_grace_is_a_miss(self, clock):
        cache = QueryResultCache(ttl_ms=100.0, stale_grace_ms=100.0, clock=clock)
        cache.store("k", 1)
        clock.advance(250.0)
        assert cache.lookup("k") == (None, MISS)
        assert "k" not in cache

    def test_no_default_ttl_never_expires(self, clock):
        cache = QueryResultCache(ttl_ms=None, clock=clock)
        cache.store("k", 1)
        clock.advance(1e12)
        assert cache.lookup("k") == (1, FRESH)


class TestInvalidation:
    def test_invalidate_tagged(self, clock):
        cache = QueryResultCache(clock=clock)
        cache.store("a", 1, source_ids=("s1", "s2"))
        cache.store("b", 2, source_ids=("s2",))
        cache.store("c", 3, source_ids=("s3",))
        assert cache.invalidate_source("s2") == 2
        assert "a" not in cache and "b" not in cache and "c" in cache

    def test_clear(self, clock):
        cache = QueryResultCache(clock=clock)
        cache.store("a", 1)
        cache.clear()
        assert len(cache) == 0
