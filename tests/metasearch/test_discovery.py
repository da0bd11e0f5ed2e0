"""Metadata harvesting: resource → sources, caching, expiry."""

import pytest

from repro.cache import SummaryTtlPolicy
from repro.engine.documents import Document
from repro.metasearch import Metasearcher
from repro.metasearch.discovery import DiscoveryService, KnownSource
from repro.resource import Resource
from repro.starts import SMetaAttributes
from repro.transport import SimulatedInternet, StartsClient, publish_resource
from repro.vendors import build_vendor_source


@pytest.fixture
def service(small_federation):
    internet, resource_url, _ = small_federation
    return DiscoveryService(StartsClient(internet)), resource_url, internet


class TestHarvesting:
    def test_refresh_discovers_all_sources(self, service):
        discovery, url, _ = service
        harvested = discovery.refresh_resource(url)
        assert sorted(s.source_id for s in harvested) == [
            "Fed-DB",
            "Fed-Med",
            "Fed-Net",
        ]

    def test_metadata_and_summary_fetched(self, service):
        discovery, url, _ = service
        discovery.refresh_resource(url)
        known = discovery.source("Fed-DB")
        assert known.metadata.source_id == "Fed-DB"
        assert known.summary is not None
        assert known.summary.num_docs == 40
        assert known.sample_results is not None

    def test_query_url_from_metadata(self, service):
        discovery, url, _ = service
        discovery.refresh_resource(url)
        assert discovery.source("Fed-DB").query_url.endswith("/query")

    def test_summaries_view(self, service):
        discovery, url, _ = service
        discovery.refresh_resource(url)
        assert set(discovery.summaries()) == {"Fed-DB", "Fed-Med", "Fed-Net"}


    @pytest.mark.parametrize("vendor", ["OkapiWorks", "GrepMaster"])
    def test_a_word_holding_a_quote_keeps_the_summary(self, vendor):
        """A whitespace tokenizer indexes ``rock"n`` whole; the harvest
        must keep that source's summary, word included."""
        internet = SimulatedInternet()
        document = Document("http://q.example.org/1", {"body-of-text": 'rock"n roll'})
        resource = Resource("Quotes", [build_vendor_source(vendor, "Q", [document])])
        url = publish_resource(internet, resource, "http://quotes.example.org")
        discovery = DiscoveryService(StartsClient(internet))
        discovery.refresh_resource(url)
        summary = discovery.source("Q").summary
        assert summary is not None
        assert summary.word_statistics()['rock"n'] == (1, 1)
        assert discovery.summary_index().term_columns('rock"n').ordinals

    def test_harvested_summaries_hold_no_word_index(self, small_federation):
        """Selection reads the decode's statistics; only a field-restricted
        lookup builds a word index."""
        internet, url, _ = small_federation
        searcher = Metasearcher(internet, [url])
        searcher.refresh()
        summaries = searcher.discovery.summaries()
        assert len(summaries) == 3
        assert not any("_word_index_cache" in s.__dict__ for s in summaries.values())


class TestMalformedBlobs:
    """One source's undecodable blob is that source's problem only."""

    def test_malformed_metadata_skips_that_source(self, service, monkeypatch):
        discovery, url, internet = service
        monkeypatch.setitem(  # the federation is session-scoped: undo after
            internet._get_handlers,
            "http://fed-net.example.org/meta",
            lambda: b"@SMetaAttributes{\nScoreRange{8}: low high\n}\n",
        )
        harvested = discovery.refresh_resource(url)
        assert sorted(s.source_id for s in harvested) == ["Fed-DB", "Fed-Med"]
        assert discovery.unreachable == {
            "Fed-Net": "http://fed-net.example.org/meta"
        }

    def test_malformed_summary_leaves_the_source_without_one(
        self, service, monkeypatch
    ):
        discovery, url, internet = service
        monkeypatch.setitem(
            internet._get_handlers,
            "http://fed-net.example.org/cont_sum.txt",
            lambda: b"@SContentSummary{\nNumDocs{4}: many\n}\n",
        )
        discovery.refresh_resource(url)
        assert discovery.source("Fed-Net").summary is None
        assert set(discovery.summaries()) == {"Fed-DB", "Fed-Med"}
        assert not discovery.unreachable

    def test_malformed_sample_leaves_the_source_without_one(
        self, service, monkeypatch
    ):
        discovery, url, internet = service
        monkeypatch.setitem(
            internet._get_handlers,
            "http://fed-net.example.org/sample",
            lambda: b"@SSampleResults{\nQueryScores{14}: databases: 0,9\n}\n",
        )
        harvested = discovery.refresh_resource(url)
        assert len(harvested) == 3
        assert discovery.source("Fed-Net").sample_results is None
        assert discovery.source("Fed-DB").sample_results is not None
        assert not discovery.unreachable


class TestCaching:
    def test_second_refresh_reuses_cache(self, service):
        discovery, url, internet = service
        discovery.refresh_resource(url)
        count_after_first = internet.request_count()
        published = discovery.catalog
        discovery.refresh_resource(url)
        # Only the resource blob is re-fetched; sources are cached, and
        # a refresh that harvested nothing publishes nothing.
        assert internet.request_count() == count_after_first + 1
        assert discovery.catalog is published

    def test_forget_forces_refetch(self, service):
        discovery, url, internet = service
        discovery.refresh_resource(url)
        discovery.forget("Fed-DB")
        count_before = internet.request_count()
        discovery.refresh_resource(url)
        assert internet.request_count() > count_before + 1

    def test_forget_purges_every_cached_artifact(self, service):
        """forget() drops the source from the next catalog, with its
        summary, sample results, harvest date and unreachable marker —
        and leaves the catalog a round already holds as it was."""
        discovery, url, _ = service
        discovery.refresh_resource(url)
        held = discovery.catalog
        known = discovery.source("Fed-DB")
        assert known.summary is not None
        discovery.unreachable["Fed-DB"] = "http://stale-marker"

        discovery.forget("Fed-DB")

        with pytest.raises(KeyError):
            discovery.source("Fed-DB")
        assert "Fed-DB" not in discovery.summaries()
        assert "Fed-DB" not in discovery.summary_index()
        assert "Fed-DB" not in discovery.fetched_on
        assert "Fed-DB" not in discovery.unreachable
        # A round reading the earlier catalog finishes on whole records.
        assert held.sources["Fed-DB"] is known
        assert known.summary is not None and known.sample_results is not None
        assert "Fed-DB" in held.index

    def test_forgetting_an_unknown_source_publishes_nothing(self, service):
        discovery, url, _ = service
        discovery.refresh_resource(url)
        held = discovery.catalog
        discovery.forget("never-known")
        assert discovery.catalog is held

    def test_refresh_records_harvest_dates(self, service):
        discovery, url, _ = service
        discovery.refresh_resource(url)
        assert discovery.fetched_on["Fed-DB"] == discovery.clock


class TestExpiry:
    def test_expired_metadata_refetched(self, own_small_federation):
        internet, url, resource = own_small_federation
        # Make one source advertise an already-past expiry date.
        resource.source("Fed-DB").date_changed = "1996-01-01"
        source = resource.source("Fed-DB")
        original_metadata = source.metadata

        def expiring_metadata():
            metadata = original_metadata()
            from dataclasses import replace

            return replace(metadata, date_expires="1996-06-01")

        source.metadata = expiring_metadata
        try:
            discovery = DiscoveryService(StartsClient(internet), clock="1996-08-01")
            discovery.refresh_resource(url)
            count = internet.request_count()
            discovery.refresh_resource(url)
            # Fed-DB was stale: its blobs were re-fetched.
            assert internet.request_count() > count + 1
        finally:
            source.metadata = original_metadata

    def test_stale_reharvest_publishes_a_new_generation(self, small_federation):
        """A re-harvest replaces a source's record under a generation no
        earlier harvest had, so a cache key that binds it cannot match."""
        internet, url, resource = small_federation
        source = resource.source("Fed-DB")
        original_metadata = source.metadata

        def expiring_metadata():
            from dataclasses import replace

            return replace(original_metadata(), date_expires="1996-06-01")

        source.metadata = expiring_metadata
        try:
            discovery = DiscoveryService(StartsClient(internet), clock="1996-08-01")
            discovery.refresh_resource(url)
            before = discovery.catalog
            discovery.refresh_resource(url)
            after = discovery.catalog
            assert after is not before
            generations = {
                known.source_id: known.generation
                for known in before.known_sources()
            }
            assert after.sources["Fed-DB"].generation > max(generations.values())
            for known in after.known_sources():
                if known.source_id != "Fed-DB":
                    assert known is before.sources[known.source_id]
        finally:
            source.metadata = original_metadata


class TestTtlPolicyStaleness:
    """`_is_stale` edge cases under the heuristic TTL policy."""

    def make_service(self, clock="1996-08-01", **policy_kwargs) -> DiscoveryService:
        return DiscoveryService(
            StartsClient(SimulatedInternet()),
            clock=clock,
            ttl_policy=SummaryTtlPolicy(**policy_kwargs),
        )

    def known(self, **metadata_kwargs) -> KnownSource:
        return KnownSource("s1", SMetaAttributes(source_id="s1", **metadata_kwargs))

    def test_missing_date_changed_never_goes_stale(self):
        service = self.make_service(clock="2020-01-01")
        service.fetched_on["s1"] = "1996-08-01"
        assert not service._is_stale(self.known())

    def test_date_changed_drives_heuristic_expiry(self):
        service = self.make_service(clock="1996-08-30")
        service.fetched_on["s1"] = "1996-08-01"
        # ~213 days old at harvest -> 21-day TTL -> stale by Aug 30.
        assert service._is_stale(self.known(date_changed="1996-01-01"))
        service.clock = "1996-08-20"
        assert not service._is_stale(self.known(date_changed="1996-01-01"))

    def test_future_date_changed_is_min_ttl_not_forever(self):
        service = self.make_service(clock="1996-08-05", min_ttl_days=1)
        service.fetched_on["s1"] = "1996-08-01"
        assert service._is_stale(self.known(date_changed="1999-01-01"))

    def test_zero_min_ttl_goes_stale_next_day(self):
        service = self.make_service(
            clock="1996-08-02", heuristic_fraction=0.0, min_ttl_days=0
        )
        service.fetched_on["s1"] = "1996-08-01"
        assert service._is_stale(self.known(date_changed="1996-07-31"))
        service.clock = "1996-08-01"
        assert not service._is_stale(self.known(date_changed="1996-07-31"))

    def test_explicit_expires_still_wins(self):
        service = self.make_service(clock="1996-08-01")
        service.fetched_on["s1"] = "1996-08-01"
        fresh_forever = self.known(date_changed="1990-01-01")
        expired = self.known(date_changed="1996-07-31", date_expires="1996-07-01")
        assert service._is_stale(expired)
        assert not service._is_stale(fresh_forever)
        assert not service._is_stale(self.known(date_expires="1996-09-01"))

    def test_never_harvested_is_not_stale(self):
        service = self.make_service(clock="2020-01-01")
        assert not service._is_stale(self.known(date_changed="1990-01-01"))

    def test_without_policy_expires_only_rule_is_unchanged(self):
        service = DiscoveryService(StartsClient(SimulatedInternet()))
        assert not service._is_stale(self.known(date_changed="1900-01-01"))
        assert service._is_stale(self.known(date_expires="1996-07-01"))
