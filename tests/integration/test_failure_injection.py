"""Failure injection: partial outages, malformed blobs, empty sources."""

import pytest

from repro.corpus import source1_documents
from repro.metasearch import Metasearcher
from repro.resource import Resource
from repro.source import StartsSource
from repro.starts import SQuery, parse_expression
from repro.starts.errors import SoifSyntaxError
from repro.transport import SimulatedInternet, StartsClient, publish_resource
from repro.transport.network import TransportError


def ranking_query():
    return SQuery(
        ranking_expression=parse_expression('list((body-of-text "databases"))')
    )


def publish_world(sources):
    internet = SimulatedInternet(seed=4)
    resource = Resource("World", sources)
    publish_resource(internet, resource, "http://world.example.org")
    return internet, "http://world.example.org/resource"


class TestMissingEndpoints:
    def test_summary_outage_degrades_gracefully(self):
        """A source whose summary endpoint is dark is still usable; it
        just cannot participate in summary-based selection."""
        internet, resource_url = publish_world(
            [StartsSource("Dark", source1_documents())]
        )
        # Simulate the outage: replace the GET handler with one that
        # never registered -> remove from registry.
        internet._get_handlers.pop("http://dark.example.org/cont_sum.txt")

        searcher = Metasearcher(internet, [resource_url])
        known = searcher.refresh()
        assert known[0].summary is None
        # Search still works: with no summaries the client falls back
        # to the first k known sources.
        result = searcher.search(ranking_query(), k_sources=1)
        assert result.documents

    def test_sample_outage_tolerated(self):
        internet, resource_url = publish_world(
            [StartsSource("NoSample", source1_documents())]
        )
        internet._get_handlers.pop("http://nosample.example.org/sample")
        searcher = Metasearcher(internet, [resource_url])
        known = searcher.refresh()
        assert known[0].sample_results is None

    def test_unregistered_resource_raises(self):
        internet = SimulatedInternet()
        searcher = Metasearcher(internet, ["http://nowhere.example.org/resource"])
        with pytest.raises(TransportError):
            searcher.refresh()


class TestMalformedBlobs:
    def test_corrupt_metadata_blob_raises_cleanly(self):
        internet, resource_url = publish_world(
            [StartsSource("Corrupt", source1_documents())]
        )
        internet._get_handlers["http://corrupt.example.org/meta"] = (
            lambda: b"@SMetaAttributes{\nbroken"
        )
        # The decode raises the typed error ...
        with pytest.raises(SoifSyntaxError):
            StartsClient(internet).fetch_metadata("http://corrupt.example.org/meta")
        # ... and a harvest records it against that source and goes on,
        # exactly as it does for a host that is down.
        searcher = Metasearcher(internet, [resource_url])
        searcher.refresh()
        assert searcher.discovery.unreachable == {
            "Corrupt": "http://corrupt.example.org/meta"
        }
        assert searcher.discovery.known_sources() == []

    def test_truncated_result_stream_raises_cleanly(self):
        internet, resource_url = publish_world(
            [StartsSource("Trunc", source1_documents())]
        )
        client = StartsClient(internet)
        internet._post_handlers["http://trunc.example.org/query"] = (
            lambda body: b"@SQResults{\nVersion{10}: STARTS 1.0\nSources{5}: Trunc\nNumDocSOIFs{1}: 3\n}\n"
        )
        with pytest.raises(SoifSyntaxError):
            client.query("http://trunc.example.org/query", ranking_query())


class TestDegenerateSources:
    def test_empty_source_is_legal(self):
        empty = StartsSource("Empty", [])
        results = empty.search(ranking_query())
        assert results.documents == ()
        assert empty.content_summary().num_docs == 0
        assert empty.metadata().source_id == "Empty"

    def test_empty_source_in_federation(self):
        internet, resource_url = publish_world(
            [
                StartsSource("Empty", []),
                StartsSource("Full", source1_documents()),
            ]
        )
        searcher = Metasearcher(internet, [resource_url])
        searcher.refresh()
        result = searcher.search(ranking_query(), k_sources=2)
        assert result.documents  # the full source carries the answer
        assert all(doc.source_id == "Full" for doc in result.documents)

    def test_single_document_source(self):
        from repro.corpus import ullman_dood_document

        tiny = StartsSource("Tiny", [ullman_dood_document()])
        results = tiny.search(ranking_query())
        assert len(results.documents) == 1
