"""Distributed tracing: one search, one stitched cross-process tree.

The trace context crosses the wire (simulated or a socket) as a
``traceparent`` header, each source endpoint records its serve-side
fragment into a :class:`TraceCollector`, and ``explain`` /
:func:`stitch_traces` splice everything back into a single tree under
one trace id — the client's ``query:<id>`` span → the server's
``serve:query:<id>`` span.  A brokered selection stays in one process:
its tree is ``select:broker`` → one ``rpc:*`` span per leaf consulted.
"""

import json
import re
import time

import pytest

from repro.federation import AsyncExecutor
from repro.metasearch.selection import Cori
from repro.cache import CachePolicy
from repro.corpus import CollectionSpec, generate_collection
from repro.metasearch import Metasearcher
from repro.observability import TraceCollector, Tracer, stitch_traces
from repro.resource import Resource
from repro.source import StartsSource
from repro.starts import SQuery, parse_expression
from repro.transport import (
    HttpTransport,
    SimulatedInternet,
    StartsHttpServer,
    publish_resource,
)
from repro.vendors import build_vendor_source

from tests.broker.util import demo_population, populated


class TestBrokerSpans:
    @pytest.fixture(params=["serial", "async"])
    def spans(self, request):
        # Contextvars do not cross AsyncExecutor's worker pool (leaf
        # consultations are plain callables); the explicit capture in
        # RootBroker._consult must keep the tree intact anyway.
        executor = AsyncExecutor(max_concurrency=4) if request.param == "async" else None
        root = populated(3, demo_population(), executor=executor)
        tracer = Tracer()
        assert root.select(Cori(), ["databases", "medicine"], 3, tracer=tracer)
        rows = stitch_traces(tracer.trace())
        return [row for row in rows if row["kind"] == "span"]

    def test_rpc_spans_nest_under_select(self, spans):
        (select,) = [row for row in spans if row["parent_id"] is None]
        assert select["name"] == "select:broker"
        consulted = [row for row in spans if row is not select]
        assert {row["parent_id"] for row in consulted} == {select["span_id"]}
        for op in ("probe", "select"):
            assert {
                row["name"] for row in consulted if row["name"].startswith(f"rpc:{op}:")
            } == {f"rpc:{op}:leaf-{index:02d}" for index in range(3)}


SLOW, SLOW_MS = "Trace-Net", 20.0


def _slow_source_resource() -> Resource:
    """Three sources, every one matching the query; one takes 20 ms."""
    resource = Resource("TraceFederation")
    for index, (source_id, vendor) in enumerate(
        [("Trace-DB", "AcmeSearch"), (SLOW, "OkapiWorks"), ("Trace-Med", "InferNet")]
    ):
        documents = generate_collection(
            CollectionSpec(
                name=source_id, topics={"databases": 1.0}, size=30, seed=300 + index
            )
        )
        resource.add_source(build_vendor_source(vendor, source_id, documents))
    slow = resource.source(SLOW)
    fast_respond = slow.respond

    def slow_respond(query):
        time.sleep(SLOW_MS / 1000.0)
        return fast_respond(query)

    slow.respond = slow_respond
    return resource


def _explained_tree(text: str) -> dict[str, tuple[str | None, float]]:
    """``{span name: (parent span name, total ms)}`` from explain()'s tree."""
    stack: list[str] = []
    tree = {}
    for line in text.splitlines():
        match = re.match(r"( *)(\S+) +(\d+\.\d)ms", line)
        if match:
            del stack[len(match[1]) // 2 :]
            tree[match[2]] = (stack[-1] if stack else None, float(match[3]))
            stack.append(match[2])
    return tree


class TestExplainNamesTheSlowSource:
    """ROADMAP item 1's acceptance, at the one server boundary there is."""

    @pytest.fixture(params=["simulated", "socket"])
    def explained(self, request):
        collector = TraceCollector()
        resource = _slow_source_resource()
        if request.param == "simulated":
            net = SimulatedInternet(seed=5)
            url = publish_resource(
                net, resource, "http://trace.example.org", trace_sink=collector
            )
            yield self._search(net, url), collector
        else:
            with StartsHttpServer(resource, trace_sink=collector) as server:
                yield self._search(HttpTransport(), server.resource_url()), collector

    @staticmethod
    def _search(transport, resource_url):
        searcher = Metasearcher(
            transport, [resource_url], cache_policy=CachePolicy.disabled()
        )
        searcher.refresh()
        query = SQuery(
            ranking_expression=parse_expression('(body-of-text "databases")'),
            max_number_documents=5,
        )
        return searcher.search(query, k_sources=3)

    def test_the_slow_fragment_sits_under_the_span_that_issued_it(self, explained):
        result, collector = explained
        assert sorted(result.ok_sources()) == ["Trace-DB", "Trace-Med", SLOW]
        tree = _explained_tree(result.explain(collector.traces()))
        for source_id in result.ok_sources():
            parent, ms = tree[f"serve:query:{source_id}"]
            assert parent == f"query:{source_id}"
            assert (ms >= SLOW_MS) == (source_id == SLOW), (source_id, ms)

    def test_strangers_stay_out(self, explained):
        result, collector = explained
        stranger = Tracer(trace_id="f00d" * 4)
        with stranger.span("serve:query:other"):
            pass
        rows = stitch_traces(result.trace, [*collector.traces(), stranger.trace()])
        assert {row["trace_id"] for row in rows} == {result.trace.trace_id}
        assert any(row.get("name", "").startswith("serve:query:") for row in rows)

    def test_without_fragments_only_the_client_side_is_told(self, explained):
        result, _ = explained
        text = result.explain()
        assert f"query:{SLOW}" in text
        assert "serve:query:" not in text


class TestExplainCommandNdjson:
    def test_the_same_rows_come_out_of_ndjson(self, tmp_path, capsys, monkeypatch):
        from repro.__main__ import main

        slow, fast_respond = "Source-IR", StartsSource.respond

        def respond(self, query):
            if self.source_id == slow:
                time.sleep(SLOW_MS / 1000.0)
            return fast_respond(self, query)

        monkeypatch.setattr(StartsSource, "respond", respond)
        path = tmp_path / "explain.ndjson"
        assert main(["--seed", "3", "explain", "--ndjson", str(path)]) == 0
        rows = [json.loads(line) for line in path.read_text().splitlines()]
        spans = {row["span_id"]: row for row in rows if row["kind"] == "span"}
        served = {
            row["name"].removeprefix("serve:query:"): row
            for row in spans.values()
            if row["name"].startswith("serve:query:")
        }
        assert slow in served and len(served) == 3
        for source_id, row in served.items():
            assert spans[row["parent_id"]]["name"] == f"query:{source_id}"
            assert (row["duration_ms"] >= SLOW_MS) == (source_id == slow)
        # The text names the same fragment, and the record closes the log.
        text = capsys.readouterr().out
        (line,) = [l for l in text.splitlines() if f"serve:query:{slow}" in l]
        assert float(line.split()[1].removesuffix("ms")) >= SLOW_MS
        assert rows[-1]["kind"] == "query"
        assert rows[-1]["trace_id"] == rows[0]["trace_id"]
