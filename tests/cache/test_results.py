"""The query-result cache: two-state reads and what they report."""

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


def scraped(registry, family: str, **labels: str) -> float:
    """One child's value as ``/metrics`` would print it; 0 when never set."""
    found = registry.family(family)
    return found.labels(**labels).value if found is not None else 0


class TestStats:
    def test_stats_flow_through(self, fresh_registry):
        """The per-process ledger: the ``cache_*`` families, tier ``result``."""
        cache, _ = make_cache(capacity=1)
        cache.store("k", 1)
        cache.lookup("k")
        cache.lookup("absent")
        cache.store("other", 2)  # evicts "k"
        reads = [
            scraped(fresh_registry, "cache_reads_total", tier="result", result=state)
            for state in (FRESH, MISS)
        ]
        assert reads == [1, 1]
        assert scraped(fresh_registry, "cache_stores_total", tier="result") == 2
        assert scraped(fresh_registry, "cache_evictions_total", tier="result") == 1
        assert "other" in cache


class TestEntriesGauge:
    """``cache_entries`` follows the entry count wherever it changes, not
    only on a store."""

    def entries(self, registry) -> float:
        return scraped(registry, "cache_entries", tier="result")

    def test_expiry_on_read_lowers_the_gauge(self, fresh_registry):
        cache, clock = make_cache()
        cache.store("k", 1)
        clock.now_ms = 150.0  # past the TTL
        assert cache.lookup("k") == (None, MISS)
        assert self.entries(fresh_registry) == 0 == len(cache)

    def test_store_drops_expired_entries_never_read_again(self, fresh_registry):
        cache, clock = make_cache(capacity=8)
        cache.store("a", 1)
        cache.store("b", 2)
        clock.now_ms = 150.0  # both past the TTL, neither read
        assert cache.store("c", 3) == 0  # expiry is not an eviction
        assert len(cache) == 1 and "c" in cache
        assert self.entries(fresh_registry) == 1

    def test_the_sweep_stops_at_the_first_live_entry(self, fresh_registry):
        cache, clock = make_cache(capacity=8)
        cache.store("old", 1)
        clock.now_ms = 60.0
        cache.store("young", 2)
        clock.now_ms = 120.0  # "old" expired, "young" has 40 ms left
        cache.store("new", 3)
        assert "old" not in cache and "young" in cache and len(cache) == 2
        assert self.entries(fresh_registry) == 2

    def test_clear_zeroes_the_gauge(self, fresh_registry):
        cache, _ = make_cache()
        cache.store("k", 1)
        cache.clear()
        assert self.entries(fresh_registry) == 0
