"""Published endpoints and the typed client: one suite, both mounts.

Every endpoint is declared once (``repro.transport.server``) and served
by the simulated internet or a socket; what a client sees must not
depend on which (the ``mounted`` fixture of ``conftest.py`` is both).
"""

from dataclasses import replace

import pytest

from repro.observability import Tracer
from repro.observability.tracing import trace_context
from repro.starts import SQuery, parse_expression
from repro.transport import (
    HostProfile,
    SimulatedInternet,
    StartsClient,
    StartsHttpServer,
    TransportError,
    publish_resource,
    publish_source,
)


def ranking_query():
    return SQuery(
        ranking_expression=parse_expression(
            'list((body-of-text "distributed") (body-of-text "databases"))'
        )
    )


class TestSourceEndpoints:
    def test_query_endpoint(self, mounted):
        over_wire = mounted.client.query(mounted.url("Source-1", "query"), ranking_query())
        assert over_wire.documents
        assert over_wire == mounted.resource.source("Source-1").search(ranking_query())

    def test_metadata_endpoint(self, mounted):
        """The source's metadata, its linkages naming the mounted URLs."""
        source = mounted.resource.source("Source-1")
        metadata = mounted.client.fetch_metadata(mounted.url("Source-1", "meta"))
        assert metadata == replace(
            source.metadata(),
            linkage=mounted.url("Source-1", "query"),
            content_summary_linkage=mounted.url("Source-1", "cont_sum.txt"),
            sample_database_results=mounted.url("Source-1", "sample"),
        )

    def test_summary_endpoint_matches_advertised_linkage(self, mounted):
        metadata = mounted.client.fetch_metadata(mounted.url("Source-1", "meta"))
        summary = mounted.client.fetch_summary(metadata.content_summary_linkage)
        assert summary.num_docs == mounted.resource.source("Source-1").document_count

    def test_sample_endpoint(self, mounted):
        metadata = mounted.client.fetch_metadata(mounted.url("Source-1", "meta"))
        sample = mounted.client.fetch_sample_results(metadata.sample_database_results)
        assert sample == mounted.resource.source("Source-1").sample_results()

    def test_scan_endpoint(self, mounted):
        response = mounted.client.scan(
            mounted.url("Source-1", "scan"), "body-of-text", "data", count=3
        )
        assert response.entries
        assert response == mounted.resource.source("Source-1").scan(
            "body-of-text", "data", 3
        )

    def test_unknown_urls_are_transport_errors(self, mounted):
        unknown_source = mounted.resource_url.replace("/resource", "/NoSource/query")
        with pytest.raises(TransportError):
            mounted.transport.perform(mounted.url("Source-1", "nope"))
        with pytest.raises(TransportError):
            mounted.transport.perform(unknown_source, "POST", b"@SQuery{\n}\n")
        with pytest.raises(TransportError):  # a GET endpoint takes no POST
            mounted.transport.perform(mounted.url("Source-1", "meta"), "POST", b"")

    def test_trace_sink_records_the_served_query_under_the_callers_span(self, mounted):
        tracer = Tracer()
        span = tracer.open_span("caller")
        with trace_context(tracer.context_for(span)):
            mounted.client.query(mounted.url("Source-1", "query"), ranking_query())
        tracer.close_span(span)
        (fragment,) = mounted.collector.traces(tracer.trace_id)
        (served,) = fragment.spans
        assert served.name == "serve:query:Source-1"
        assert served.remote_parent_id == span.span_id

    def test_untraced_requests_leave_the_sink_empty(self, mounted):
        mounted.client.query(mounted.url("Source-1", "query"), ranking_query())
        mounted.client.scan(mounted.url("Source-1", "scan"), "body-of-text", "data")
        assert len(mounted.collector) == 0


class TestResourceEndpoints:
    def test_resource_blob_lists_sources(self, mounted):
        resource = mounted.client.fetch_resource(mounted.resource_url)
        assert resource.source_ids() == ["Source-1", "Source-2"]
        for source_id in resource.source_ids():
            assert resource.metadata_url(source_id) == mounted.url(source_id, "meta")

    def test_queries_route_through_resource(self, mounted):
        """A query naming Source-2 in Sources gets resource-side
        merging even though it was POSTed to Source-1."""
        query = ranking_query().with_sources("Source-2")
        results = mounted.client.query(mounted.url("Source-1", "query"), query)
        assert set(results.sources) == {"Source-1", "Source-2"}

    def test_per_source_host_profiles(self, paper_resource):
        net = SimulatedInternet()
        publish_resource(
            net,
            paper_resource,
            "http://stanford.example.org",
            source_profiles={
                "Source-1": HostProfile(latency_ms=5.0, jitter_ms=0.0),
                "Source-2": HostProfile(latency_ms=300.0, jitter_ms=0.0),
            },
        )
        client = StartsClient(net)
        client.fetch_metadata(
            paper_resource.source("Source-2").base_url + "/meta"
        )
        assert net.total_latency_ms() == pytest.approx(300.0)

    def test_a_socket_serves_only_its_own_urls(self, paper_resource):
        with StartsHttpServer(paper_resource) as server:
            with pytest.raises(ValueError, match="not served by"):
                publish_source(server, paper_resource.source("Source-1"))
