"""The query-result cache: three-state reads, tags, single-flight."""

from repro.cache import FRESH, MISS, STALE, QueryResultCache


class FakeClock:
    def __init__(self) -> None:
        self.now_ms = 0.0

    def __call__(self) -> float:
        return self.now_ms


def make_cache(**kwargs) -> tuple[QueryResultCache, FakeClock]:
    clock = FakeClock()
    defaults = dict(ttl_ms=100.0, stale_grace_ms=100.0, clock=clock)
    defaults.update(kwargs)
    return QueryResultCache(**defaults), clock


class TestReads:
    def test_fresh_stale_miss_progression(self):
        cache, clock = make_cache()
        cache.store("k", {"docs": 3}, source_ids=("s1",))
        assert cache.lookup("k") == ({"docs": 3}, FRESH)
        clock.now_ms = 150.0
        assert cache.lookup("k") == ({"docs": 3}, STALE)
        clock.now_ms = 250.0
        assert cache.lookup("k") == (None, MISS)

    def test_zero_grace_means_expired_is_miss(self):
        cache, clock = make_cache(stale_grace_ms=0.0)
        cache.store("k", 1)
        clock.now_ms = 150.0
        assert cache.lookup("k") == (None, MISS)

    def test_store_again_refreshes(self):
        cache, clock = make_cache()
        cache.store("k", "old")
        clock.now_ms = 150.0
        cache.store("k", "new")
        assert cache.lookup("k") == ("new", FRESH)


class TestSourceInvalidation:
    def test_only_tagged_results_fall(self):
        cache, _ = make_cache()
        cache.store("a", 1, source_ids=("s1", "s2"))
        cache.store("b", 2, source_ids=("s3",))
        assert cache.invalidate_source("s1") == 1
        assert cache.lookup("a") == (None, MISS)
        assert cache.lookup("b") == (2, FRESH)

    def test_clear(self):
        cache, _ = make_cache()
        cache.store("a", 1)
        cache.clear()
        assert len(cache) == 0


class TestSingleFlight:
    def test_only_one_revalidation_per_key(self):
        cache, _ = make_cache()
        assert cache.begin_revalidation("k") is True
        assert cache.begin_revalidation("k") is False
        cache.finish_revalidation("k")
        assert cache.begin_revalidation("k") is True

    def test_keys_are_independent(self):
        cache, _ = make_cache()
        assert cache.begin_revalidation("a") is True
        assert cache.begin_revalidation("b") is True

    def test_finish_unclaimed_is_harmless(self):
        cache, _ = make_cache()
        cache.finish_revalidation("never-claimed")


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
            for state in (FRESH, STALE, MISS)
        ]
        assert reads == [1, 0, 1]
        assert scraped(fresh_registry, "cache_stores_total", tier="result") == 2
        assert scraped(fresh_registry, "cache_evictions_total", tier="result") == 1
        assert "other" in cache


class TestEntriesGauge:
    """``cache_entries`` follows the entry count wherever it changes, not
    only on a store."""

    def entries(self, registry) -> float:
        return scraped(registry, "cache_entries", tier="result")

    def test_invalidate_source_lowers_the_gauge(self, fresh_registry):
        cache, _ = make_cache()
        cache.store("a", 1, source_ids=("s1",))
        cache.store("b", 2, source_ids=("s2",))
        assert self.entries(fresh_registry) == 2
        assert cache.invalidate_source("s1") == 1
        assert self.entries(fresh_registry) == 1 == len(cache)

    def test_expiry_on_read_lowers_the_gauge(self, fresh_registry):
        cache, clock = make_cache()
        cache.store("k", 1)
        clock.now_ms = 250.0  # beyond TTL + grace
        assert cache.lookup("k") == (None, MISS)
        assert self.entries(fresh_registry) == 0 == len(cache)

    def test_clear_zeroes_the_gauge(self, fresh_registry):
        cache, _ = make_cache()
        cache.store("k", 1)
        cache.clear()
        assert self.entries(fresh_registry) == 0
