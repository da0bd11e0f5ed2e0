"""The query-result cache: two-state reads and what they return."""

from repro.cache import FRESH, MISS, QueryResultCache


class FakeClock:
    def __init__(self) -> None:
        self.now_ms = 0.0

    def __call__(self) -> float:
        return self.now_ms


def make_cache(**kwargs) -> tuple[QueryResultCache, FakeClock]:
    clock = FakeClock()
    defaults = dict(ttl_ms=100.0, clock=clock)
    defaults.update(kwargs)
    return QueryResultCache(**defaults), clock


class TestReads:
    def test_store_again_refreshes(self):
        cache, clock = make_cache()
        cache.store("k", "old")
        clock.now_ms = 150.0
        cache.store("k", "new")
        assert cache.lookup("k") == ("new", FRESH)


class TestSourceInvalidation:
    def test_clear(self):
        cache, _ = make_cache()
        cache.store("a", 1)
        cache.clear()
        assert len(cache) == 0


class TestStats:
    def test_stats_flow_through(self):
        """What a read and a store report is their return value: the
        search turns it into its ``cache`` event (a miss carries the
        ``evictions`` its store forced) and its record's ``cache_hits``."""
        cache, _ = make_cache(capacity=1)
        assert cache.store("k", 1) == 0
        assert cache.lookup("k") == (1, FRESH)
        assert cache.lookup("absent") == (None, MISS)
        assert cache.store("other", 2) == 1  # evicts "k"
        assert "other" in cache and "k" not in cache


class TestEntriesGauge:
    """The entry count follows every change, not only a store."""

    def test_expiry_on_read_lowers_the_gauge(self):
        cache, clock = make_cache()
        cache.store("k", 1)
        clock.now_ms = 150.0  # past the TTL
        assert cache.lookup("k") == (None, MISS)
        assert len(cache) == 0

    def test_store_drops_expired_entries_never_read_again(self):
        cache, clock = make_cache(capacity=8)
        cache.store("a", 1)
        cache.store("b", 2)
        clock.now_ms = 150.0  # both past the TTL, neither read
        assert cache.store("c", 3) == 0  # expiry is not an eviction
        assert len(cache) == 1 and "c" in cache

    def test_the_sweep_stops_at_the_first_live_entry(self):
        cache, clock = make_cache(capacity=8)
        cache.store("old", 1)
        clock.now_ms = 60.0
        cache.store("young", 2)
        clock.now_ms = 120.0  # "old" expired, "young" has 40 ms left
        cache.store("new", 3)
        assert "old" not in cache and "young" in cache and len(cache) == 2

    def test_clear_zeroes_the_gauge(self):
        cache, _ = make_cache()
        cache.store("k", 1)
        cache.store("j", 2)
        cache.clear()
        assert len(cache) == 0 and "k" not in cache
