"""One client, two wires: what must not depend on the transport.

The same resource is published on the simulated internet and on a
socket; a ``Metasearcher`` — either executor, batch or stream — and a
dispatcher with retries must behave over ``HttpTransport`` as they do
over ``SimulatedInternet``.  Every class below pins a defect the
hand-copied HTTP fork had.
"""

import collections
import http.client
import socket
import time

import pytest

import repro.transport.http as http_wire
from repro.cache import CachePolicy
from repro.corpus import CollectionSpec, generate_collection
from repro.federation import AsyncExecutor, QueryPolicy, SerialExecutor
from repro.metasearch import Metasearcher
from repro.resource import Resource
from repro.source import StartsSource
from repro.starts import SQuery, parse_expression
from repro.starts.errors import StartsError
from repro.transport import (
    HttpTransport,
    SimulatedInternet,
    StartsHttpServer,
    TransportError,
    TransportTimeout,
    publish_resource,
)

EXECUTORS = {"serial": SerialExecutor, "async": AsyncExecutor}


def ranking_query(limit=10):
    return SQuery(
        ranking_expression=parse_expression(
            'list((body-of-text "distributed") (body-of-text "databases"))'
        ),
        max_number_documents=limit,
    )


def searcher_over(transport, resource_url, **options):
    searcher = Metasearcher(
        transport, [resource_url], cache_policy=CachePolicy.disabled(), **options
    )
    searcher.refresh()
    return searcher


def rank_of(documents):
    return [(doc.linkage, float.hex(doc.score), doc.source_id) for doc in documents]


class TestParityMatrix:
    def test_mount_by_executor_by_batch_or_stream_is_one_rank(self, paper_resource):
        net = SimulatedInternet(seed=3)
        simulated_url = publish_resource(net, paper_resource, "http://stanford.example.org")
        ranks = {}
        with StartsHttpServer(paper_resource) as server:
            wires = {
                "simulated": (net, simulated_url),
                "socket": (HttpTransport(), server.resource_url()),
            }
            for wire, (transport, resource_url) in wires.items():
                searcher = searcher_over(transport, resource_url)
                for name, executor in EXECUTORS.items():
                    batch = searcher.search(
                        ranking_query(), k_sources=2, executor=executor()
                    )
                    *_, final = searcher.search_stream(
                        ranking_query(), k_sources=2, executor=executor()
                    )
                    ranks[wire, name, "search"] = rank_of(batch.documents)
                    ranks[wire, name, "stream"] = rank_of(final.documents)
        assert len(ranks) == 8
        reference = ranks["simulated", "serial", "search"]
        assert reference
        assert all(rank == reference for rank in ranks.values())


class TestAsyncOverSockets:
    """Row 1: the one transport whose waits are real can overlap them."""

    def test_eight_waiting_sockets_overlap_under_the_async_executor(self, monkeypatch):
        sources = [
            StartsSource(
                f"Slow-{index}",
                generate_collection(
                    CollectionSpec(
                        name=f"Slow-{index}",
                        topics={"databases": 1.0},
                        size=12,
                        seed=40 + index,
                    )
                ),
            )
            for index in range(8)
        ]
        with StartsHttpServer(Resource("Slow", sources)) as server:
            searcher = searcher_over(HttpTransport(), server.resource_url())
            answer = StartsSource.respond

            def slow_respond(self, query):
                time.sleep(0.03)
                return answer(self, query)

            monkeypatch.setattr(StartsSource, "respond", slow_respond)
            walls = {}
            for name, executor in EXECUTORS.items():
                started = time.perf_counter()
                result = searcher.search(
                    ranking_query(), k_sources=8, executor=executor()
                )
                walls[name] = time.perf_counter() - started
                assert len(result.ok_sources()) == 8
        assert walls["serial"] >= 8 * 0.03
        assert walls["async"] < walls["serial"] / 2


class TestRetriesOverSockets:
    """Row 2: a failing source is that source's outcome, retried, not an
    aborted search."""

    @pytest.mark.parametrize("executor", EXECUTORS.values(), ids=list(EXECUTORS))
    def test_one_failing_source_is_retried_and_the_rest_merged(
        self, paper_resource, executor
    ):
        def on_fire(body):
            raise RuntimeError("index on fire")

        with StartsHttpServer(paper_resource) as server:
            searcher = searcher_over(
                HttpTransport(),
                server.resource_url(),
                executor=executor(),
                query_policy=QueryPolicy(max_retries=1, backoff_base_ms=1.0),
            )
            server.mount(f"{server.base_url}/Source-2", {("POST", "query"): on_fire})
            result = searcher.search(ranking_query(), k_sources=2)
        assert result.outcome_counts() == {"ok": 1, "error": 1}
        assert result.documents
        failed = result.outcomes["Source-2"]
        assert [attempt.number for attempt in failed.attempts] == [1, 2]
        assert "500" in failed.error and "index on fire" in failed.error


class TestErrorFidelity:
    """Row 4: what the server said was wrong reaches the caller."""

    def test_a_malformed_attribute_is_named_on_either_wire(self, mounted):
        body = b"@SQuery{\nMaxNumberDocuments{3}: ten\n}\n"
        with pytest.raises((TransportError, StartsError), match="MaxNumberDocuments"):
            mounted.transport.perform(mounted.url("Source-1", "query"), "POST", body)

    def test_a_failed_request_is_logged_with_its_record(self, paper_resource):
        transport = HttpTransport()
        with StartsHttpServer(paper_resource) as server:
            with pytest.raises(TransportError, match="404") as raised:
                transport.perform(f"{server.base_url}/nope")
        assert raised.value.record is transport.log[-1]
        assert raised.value.record.status == "error"
        assert [record.status for record in transport.log] == ["error"]

    def test_a_timeout_is_classified_by_type(self):
        # A listener that accepts (the kernel does) and never answers.
        transport = HttpTransport()
        with socket.create_server(("127.0.0.1", 0)) as listener:
            url = f"http://127.0.0.1:{listener.getsockname()[1]}/Source-1/meta"
            with pytest.raises(TransportTimeout) as raised:
                transport.perform(url, deadline_ms=50.0)
        assert raised.value.record.status == "timeout"
        assert raised.value.record.latency_ms >= 50.0

    def test_a_url_that_is_none_is_a_transport_error(self):
        with pytest.raises(TransportError):
            HttpTransport().perform("not a url")


class TestSocketEdge:
    """Row 5: the request line and the sizes are outside input too."""

    @staticmethod
    def status_of(server, content_length: str, body: bytes = b"") -> int:
        host, port = server.base_url.removeprefix("http://").split(":")
        connection = http.client.HTTPConnection(host, int(port), timeout=5)
        try:
            connection.putrequest("POST", "/Source-1/query")
            connection.putheader("Content-Length", content_length)
            connection.endheaders(body)
            return connection.getresponse().status
        finally:
            connection.close()

    @pytest.mark.parametrize("declared", ["abc", "-5", ""])
    def test_a_content_length_that_is_no_length_is_a_400(self, paper_resource, declared):
        with StartsHttpServer(paper_resource) as server:
            assert self.status_of(server, declared) == 400
            # ...and the server is still answering.
            HttpTransport().perform(f"{server.base_url}/resource")

    def test_an_oversized_request_is_refused_unread(self, paper_resource):
        declared = str(http_wire.MAX_REQUEST_BYTES + 1)
        with StartsHttpServer(paper_resource) as server:
            assert self.status_of(server, declared, b"only this much sent") == 413

    def test_an_oversized_response_is_a_transport_error(
        self, paper_resource, monkeypatch
    ):
        monkeypatch.setattr(http_wire, "MAX_RESPONSE_BYTES", 64)
        transport = HttpTransport()
        with StartsHttpServer(paper_resource) as server:
            with pytest.raises(TransportError, match="exceeds 64 bytes") as raised:
                transport.perform(f"{server.base_url}/Source-1/meta")
        assert raised.value.record is transport.log[-1]


class TestRequestLog:
    def test_both_wires_log_one_record_per_request_in_one_list(self, mounted):
        transport = mounted.transport
        log = transport.log
        body = ranking_query().to_soif().dump().encode("utf-8")
        transport.perform(mounted.url("Source-1", "query"), "POST", body)
        assert collections.Counter(record.method for record in log) == {"POST": 1}
        assert transport.request_count() == 1
        transport.reset_log()
        assert transport.log is log and log == []
