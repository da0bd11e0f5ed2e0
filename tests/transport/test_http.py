"""The socket wire's own edges: statuses, the full pipeline, accounting.

What every endpoint answers is checked once for both mounts in
``test_endpoints.py``; what the two transports must agree on in
``test_transport_parity.py``.
"""

import pytest

from repro.corpus import source1_documents, source2_documents
from repro.metasearch import Metasearcher
from repro.resource import Resource
from repro.source import StartsSource
from repro.starts import SQuery, parse_expression
from repro.transport.http import HttpTransport, StartsHttpServer


@pytest.fixture(scope="module")
def server():
    resource = Resource(
        "HttpWorld",
        [
            StartsSource("Source-1", source1_documents()),
            StartsSource("Source-2", source2_documents()),
        ],
    )
    with StartsHttpServer(resource) as running:
        yield running


def ranking_query():
    return SQuery(
        ranking_expression=parse_expression(
            'list((body-of-text "distributed") (body-of-text "databases"))'
        )
    )


class TestErrorStatuses:
    """400 for a request that does not decode, 500 for the server's own faults."""

    @staticmethod
    def status_of(url: str, body: bytes) -> tuple[int, str]:
        import urllib.error
        import urllib.request

        try:
            with urllib.request.urlopen(urllib.request.Request(url, data=body)) as reply:
                return reply.status, reply.read().decode("utf-8")
        except urllib.error.HTTPError as error:
            return error.code, error.read().decode("utf-8")

    @pytest.mark.parametrize(
        "body, names",
        [
            (b"\xff\xfe not soif", "SOIF"),
            (b"@SQuery{\nMaxNumberDocuments{3}: ten\n}\n", "MaxNumberDocuments"),
            (b"@SQuery{\nMinDocumentScore{1}: x\n}\n", "MinDocumentScore"),
            (b'@SQuery{\nFilterExpression{9}: (title "x\n}\n', "tokenize"),
            (b"@SQuery{\n}\n", "filter or a ranking"),
        ],
    )
    def test_malformed_query_is_a_400_with_the_message(self, server, body, names):
        status, message = self.status_of(server.source_query_url("Source-1"), body)
        assert status == 400
        assert names in message

    def test_malformed_scan_request_is_a_400(self, server):
        status, _ = self.status_of(f"{server.base_url}/Source-1/scan", b"@Wrong{")
        assert status == 400

    def test_server_fault_stays_a_500(self, server, monkeypatch):
        def broken(self, query):
            raise RuntimeError("index on fire")

        monkeypatch.setattr(StartsSource, "respond", broken)
        body = ranking_query().to_soif().dump().encode("utf-8")
        status, message = self.status_of(server.source_query_url("Source-1"), body)
        assert status == 500
        assert "index on fire" in message


class TestMetasearcherOverHttp:
    def test_full_pipeline_on_real_sockets(self, server):
        searcher = Metasearcher(HttpTransport(), [server.resource_url()])
        known = searcher.refresh()
        assert len(known) == 2
        result = searcher.search(ranking_query(), k_sources=2)
        assert result.documents
        assert result.query_latency_parallel_ms > 0.0


class TestTransportAccounting:
    def test_latency_measured(self, server):
        transport = HttpTransport()
        transport.perform(f"{server.base_url}/Source-1/meta")
        assert transport.request_count() == 1
        host = server.base_url.removeprefix("http://")
        assert transport.request_count(host) == 1
        assert transport.request_count("127.0.0") == 0  # the netloc, not a substring
        assert transport.total_latency_ms() > 0.0
        transport.reset_log()
        assert transport.request_count() == 0
