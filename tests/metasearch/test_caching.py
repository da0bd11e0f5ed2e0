"""The cached metasearch path: hits off the wire, expired entries that
miss, negative caching of dead sources, and keys that miss once a source
is forgotten or re-harvested."""

import threading

import pytest

from repro.cache import CachePolicy, NegativeSourceCache, QueryResultCache
from repro.corpus import source1_documents, source2_documents
from repro.engine import fields as F
from repro.engine.documents import Document
from repro.federation import AsyncExecutor, OutcomeStatus, SerialExecutor
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
        # One decision, one event: the hit, with the cost the filling
        # round paid and this one did not.
        (event,) = [span for span in result.trace.walk() if span.name == "cache"]
        saved = sum(outcome.cost for outcome in result.outcomes.values())
        assert event.attributes == {"status": "hit", "saved_cost": saved}
        rendered = result.explain()
        assert "result cache: hit" in rendered
        assert "status=hit" in rendered
        assert '"cache_hits": 1' in rendered and '"requests": 0' in rendered

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
        saved = sum(outcome.cost for outcome in batch.outcomes.values())
        assert cache_event(batch)[0] == {"status": "hit", "saved_cost": saved}

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
        assert second.trace.find("cache") is None
        explained = second.explain()
        assert "result cache" not in explained
        assert "status=miss" not in explained


class TestExpiry:
    """An entry past its TTL is a miss: the search goes back on the wire
    and answers with the world as it is now, on every executor."""

    @staticmethod
    def expired_world(federation, executor):
        """A cached searcher and a cache-off twin, harvested together; the
        cached one has answered ``databases`` once, then one selected
        source gained a matching document (no re-harvest) and the clock
        moved past the TTL."""
        internet, resource_url, resource = federation
        clock = {"now": 0.0}
        cached = Metasearcher(internet, [resource_url], executor=executor)
        cached.result_cache = QueryResultCache(ttl_ms=100.0, clock=lambda: clock["now"])
        uncached = Metasearcher(
            internet,
            [resource_url],
            executor=executor,
            cache_policy=CachePolicy.disabled(),
        )
        cached.refresh()
        uncached.refresh()
        query = ranking_query("databases")
        first = cached.search(query)
        engine = resource.source(first.selected_sources[0]).engine
        engine.add(
            Document(
                "http://new.example.org/databases",
                {F.TITLE: "databases", F.BODY_OF_TEXT: "databases " * 40},
            )
        )
        clock["now"] = 500.0
        return cached, uncached, query, first

    def test_an_expired_entry_answers_with_the_world_as_it_is_now(
        self, own_small_federation
    ):
        cached, uncached, query, first = self.expired_world(
            own_small_federation, SerialExecutor()
        )
        again = cached.search(query)
        assert again.cache_status is None
        assert "http://new.example.org/databases" in again.linkages()
        assert "http://new.example.org/databases" not in first.linkages()
        assert again.documents == uncached.search(query).documents

    def test_a_metasearcher_starts_no_thread(
        self, own_small_federation, monkeypatch
    ):
        cached, uncached, query, _ = self.expired_world(
            own_small_federation, AsyncExecutor()
        )
        started = []
        start = threading.Thread.start

        def counting_start(thread):
            started.append(thread)
            start(thread)

        monkeypatch.setattr(threading.Thread, "start", counting_start)
        again = cached.search(query)
        assert started == []
        assert again.cache_status is None
        assert again.documents == uncached.search(query).documents


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
        # Two cache decisions, one event each; a round that skipped a
        # source is not stored, so the miss never gets its evictions.
        events = [span.attributes for span in second.trace.walk() if span.name == "cache"]
        assert events == [
            {"status": "miss"},
            {"source": "Doomed", "status": "negative-skip"},
        ]

    def test_recovery_clears_the_negative_entry(self, world_with_dead_source):
        internet, searcher = world_with_dead_source
        clock = {"now": 0.0}
        searcher.negative_cache = NegativeSourceCache(clock=lambda: clock["now"])
        searcher.search(ranking_query("databases"), k_sources=2)
        assert len(searcher.negative_cache) == 1

        internet.set_fault_profile("doomed.org", FaultProfile())  # host heals
        clock["now"] += searcher.negative_cache.ttl_ms  # the hold runs out
        result = searcher.search(ranking_query("stanford"), k_sources=2)
        assert "Doomed" in result.ok_sources()
        assert len(searcher.negative_cache) == 0

    def test_a_round_with_a_failed_source_is_not_served_after_it_heals(
        self, world_with_dead_source
    ):
        internet, searcher = world_with_dead_source
        clock = {"now": 0.0}
        searcher.negative_cache = NegativeSourceCache(clock=lambda: clock["now"])
        query = ranking_query("databases")
        first = searcher.search(query, k_sources=2)
        assert first.outcomes["Doomed"].status is OutcomeStatus.ERROR
        assert len(searcher.result_cache) == 0  # answered with fewer sources

        internet.set_fault_profile("doomed.org", FaultProfile())  # host heals
        clock["now"] += searcher.negative_cache.ttl_ms  # the hold runs out
        requests_before = internet.request_count()
        healed = searcher.search(query, k_sources=2)
        assert healed.cache_status is None  # back on the wire
        assert internet.request_count() > requests_before
        assert healed.outcomes["Doomed"].ok
        assert searcher.search(query, k_sources=2).cache_status == "hit"


class TestInvalidation:
    def test_forget_purges_cached_results_for_that_source(self, searcher):
        _, searcher = searcher
        query = ranking_query("databases")
        first = searcher.search(query)
        victim = first.selected_sources[0]
        searcher.discovery.forget(victim)
        assert searcher.search(query).cache_status is None
        searcher.refresh()  # the same source, harvested again
        again = searcher.search(query)
        assert victim in again.selected_sources
        assert again.cache_status is None  # the old entry missed

    def test_forgetting_an_uninvolved_source_keeps_the_entry(self, searcher):
        _, searcher = searcher
        query = ranking_query("databases")
        result = searcher.search(query, k_sources=1)
        uninvolved = [
            known.source_id
            for known in searcher.discovery.known_sources()
            if known.source_id not in result.selected_sources
        ]
        searcher.discovery.forget(uninvolved[0])
        again = searcher.search(query, k_sources=1)
        assert again.selected_sources == result.selected_sources
        assert again.cache_status == "hit"
