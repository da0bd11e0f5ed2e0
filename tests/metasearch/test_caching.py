"""The cached metasearch path: hits off the wire, stale-while-revalidate,
negative caching of dead sources, and invalidation on forget()."""

import pytest

from repro.cache import CachePolicy, QueryResultCache
from repro.corpus import source1_documents, source2_documents
from repro.metasearch import Metasearcher
from repro.resource import Resource
from repro.source import StartsSource
from repro.starts import SQuery, parse_expression
from repro.transport import FaultProfile, SimulatedInternet, publish_resource


def ranking_query(*terms: str) -> SQuery:
    items = " ".join(f'(body-of-text "{term}")' for term in terms)
    return SQuery(ranking_expression=parse_expression(f"list({items})"))


@pytest.fixture
def searcher(small_federation):
    internet, resource_url, _ = small_federation
    searcher = Metasearcher(internet, [resource_url])
    searcher.refresh()
    return internet, searcher


class TestResultCacheHits:
    def test_repeat_query_is_served_without_wire_traffic(self, searcher):
        internet, searcher = searcher
        query = ranking_query("databases")
        first = searcher.search(query)
        assert first.cache_status is None

        requests_before = internet.request_count()
        second = searcher.search(query)
        assert second.cache_status == "hit"
        assert internet.request_count() == requests_before
        assert second.linkages() == first.linkages()
        assert second.outcome_counts() == first.outcome_counts()

    def test_equivalent_spelling_shares_the_cached_answer(self, searcher):
        internet, searcher = searcher
        searcher.search(ranking_query("databases", "relational"))
        requests_before = internet.request_count()
        flipped = searcher.search(ranking_query("relational", "databases"))
        assert flipped.cache_status == "hit"
        assert internet.request_count() == requests_before

    def test_hit_is_visible_in_trace_and_counters(self, searcher):
        _, searcher = searcher
        query = ranking_query("databases")
        searcher.search(query)
        result = searcher.search(query)
        assert result.trace.cache is not None
        assert result.trace.cache.hits == 1
        rendered = result.explain()
        assert "result cache: hit" in rendered
        assert "cache counters:" in rendered
        assert (result.trace.cache.misses, result.trace.cache.stores) == (0, 0)

    def test_served_copies_do_not_share_mutable_state(self, searcher):
        _, searcher = searcher
        query = ranking_query("databases")
        first = searcher.search(query)
        expected = list(first.linkages())
        first.documents.clear()
        first.per_source_results.clear()
        second = searcher.search(query)
        assert second.cache_status == "hit"
        assert second.linkages() == expected

    def test_streamed_hit_is_recorded_exactly_like_a_batch_hit(self, searcher):
        """One serve-from-cache phase: same ``cache`` event, same log line."""
        from repro.observability import QueryLog, get_query_log, set_query_log

        _, searcher = searcher
        query = ranking_query("databases")
        searcher.search(query)  # fill the cache
        previous = get_query_log()
        log = set_query_log(QueryLog())
        try:
            batch = searcher.search(query)
            (emission,) = searcher.search_stream(query)
        finally:
            set_query_log(previous)
        streamed = emission.result
        assert emission.is_final and emission.sequence == 0
        assert batch.cache_status == streamed.cache_status == "hit"

        def cache_event(result):
            event = result.trace.find("cache")
            return event.attributes, [span.name for span in result.trace.spans]

        assert cache_event(streamed) == cache_event(batch)
        assert cache_event(batch)[0]["saved_cost"] == batch.trace.cache.cost_saved
        assert streamed.trace.cache == batch.trace.cache

        batch_record, stream_record = (record.to_json() for record in log.records())
        for volatile in ("total_ms", "trace_id", "phase_ms", "unix_ms"):
            batch_record.pop(volatile)
            stream_record.pop(volatile)
        assert stream_record == batch_record
        assert batch_record["outcome"] == "hit"
        assert batch_record["cache_hits"] == 1

    def test_different_k_sources_do_not_collide(self, searcher):
        _, searcher = searcher
        query = ranking_query("databases")
        wide = searcher.search(query, k_sources=3)
        narrow = searcher.search(query, k_sources=1)
        # Different source sets -> different keys -> both were misses.
        assert narrow.cache_status is None
        assert set(narrow.selected_sources) != set(wide.selected_sources)


class TestDisabledPolicy:
    def test_disabled_means_no_caching_anywhere(self, small_federation):
        internet, resource_url, _ = small_federation
        searcher = Metasearcher(
            internet, [resource_url], cache_policy=CachePolicy.disabled()
        )
        searcher.refresh()
        assert searcher.result_cache is None
        assert searcher.negative_cache is None

        query = ranking_query("databases")
        first = searcher.search(query)
        requests_after_first = internet.request_count()
        second = searcher.search(query)
        assert internet.request_count() > requests_after_first  # wire paid again
        assert first.cache_status is None and second.cache_status is None
        # The trace renders exactly as the uncached pipeline always did.
        assert second.trace.cache is None
        explained = second.explain()
        assert "result cache" not in explained
        assert "cache counters:" not in explained


class TestStaleWhileRevalidate:
    def test_stale_entry_is_served_then_refreshed(self, searcher, fresh_registry):
        internet, searcher = searcher
        clock = {"now": 0.0}
        searcher.result_cache = QueryResultCache(
            ttl_ms=100.0, stale_grace_ms=1000.0, clock=lambda: clock["now"]
        )
        query = ranking_query("databases")
        first = searcher.search(query)

        clock["now"] = 500.0  # past the TTL, inside the grace window
        requests_before = internet.request_count()
        stale = searcher.search(query)
        assert stale.cache_status == "stale"
        assert stale.linkages() == first.linkages()
        # The serial executor revalidates inline: the refresh already
        # paid the wire and re-stored the entry.
        assert internet.request_count() > requests_before
        stores = fresh_registry.family("cache_stores_total").labels(tier="result")
        assert stores.value == 2

        requests_after_refresh = internet.request_count()
        refreshed = searcher.search(query)
        assert refreshed.cache_status == "hit"
        assert internet.request_count() == requests_after_refresh

    def test_stale_serve_is_counted(self, searcher):
        _, searcher = searcher
        clock = {"now": 0.0}
        searcher.result_cache = QueryResultCache(
            ttl_ms=100.0, stale_grace_ms=1000.0, clock=lambda: clock["now"]
        )
        query = ranking_query("databases")
        searcher.search(query)
        clock["now"] = 500.0
        stale = searcher.search(query)
        assert stale.trace.cache.stale_hits == 1
        assert "result cache: stale" in stale.explain()


class TestNegativeCaching:
    @pytest.fixture
    def world_with_dead_source(self):
        internet = SimulatedInternet(seed=5)
        resource = Resource(
            "Mixed",
            [
                StartsSource(
                    "Alive", source1_documents(), base_url="http://alive.org/s"
                ),
                StartsSource(
                    "Doomed", source2_documents(), base_url="http://doomed.org/s"
                ),
            ],
        )
        publish_resource(internet, resource, "http://mixed.org")
        searcher = Metasearcher(internet, ["http://mixed.org/resource"])
        searcher.refresh()
        # The host dies after discovery, so the query round meets it.
        internet.set_fault_profile("doomed.org", FaultProfile.dead())
        return internet, searcher

    def test_failed_source_is_skipped_on_the_next_search(
        self, world_with_dead_source
    ):
        internet, searcher = world_with_dead_source
        first = searcher.search(ranking_query("databases"), k_sources=2)
        assert "Doomed" in first.failed_sources()

        # A different query, same selection: the dead source is now
        # negative-cached and never probed.
        log_size = len(internet.log)
        second = searcher.search(ranking_query("stanford"), k_sources=2)
        assert "Doomed" in second.skipped_sources()
        assert "negative-cached" in second.outcomes["Doomed"].skip_reason
        doomed_requests = [
            record
            for record in internet.log[log_size:]
            if "doomed.org" in record.url
        ]
        assert doomed_requests == []
        assert second.trace.cache.negative_skips == 1

    def test_recovery_clears_the_negative_entry(self, world_with_dead_source):
        internet, searcher = world_with_dead_source
        searcher.search(ranking_query("databases"), k_sources=2)
        assert len(searcher.negative_cache) == 1

        internet.set_fault_profile("doomed.org", FaultProfile())  # host heals
        searcher.negative_cache.forget("Doomed")  # operator resets the hold
        result = searcher.search(ranking_query("stanford"), k_sources=2)
        assert "Doomed" in result.ok_sources()
        assert len(searcher.negative_cache) == 0


class TestInvalidation:
    def test_forget_purges_cached_results_for_that_source(self, searcher):
        _, searcher = searcher
        searcher.search(ranking_query("databases"))
        assert len(searcher.result_cache) == 1
        victim = searcher.discovery.known_sources()[0].source_id
        searcher.discovery.forget(victim)
        assert len(searcher.result_cache) == 0

    def test_forgetting_an_uninvolved_source_keeps_the_entry(self, searcher):
        _, searcher = searcher
        result = searcher.search(ranking_query("databases"), k_sources=1)
        uninvolved = [
            known.source_id
            for known in searcher.discovery.known_sources()
            if known.source_id not in result.selected_sources
        ]
        searcher.discovery.forget(uninvolved[0])
        assert len(searcher.result_cache) == 1
