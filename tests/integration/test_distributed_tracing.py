"""Distributed tracing: one consultation, one stitched cross-process tree.

The acceptance path for the tracing tentpole: a :class:`RootBroker`
whose children are :class:`NetworkLeafHandle`\\ s over published
endpoints runs one ``select`` under a client tracer; the trace context
crosses the (simulated) wire as a ``traceparent`` header, each endpoint
records its serve-side fragment into a :class:`TraceCollector`, and
:func:`stitch_traces` splices everything back into a single tree under
one trace id — root span → per-leaf ``rpc:*`` spans → server-side
``leaf:*`` spans.
"""

import json
import re
import time

import pytest

from repro.broker import (
    LeafBroker,
    NetworkLeafHandle,
    RootBroker,
    publish_broker_leaf,
)
from repro.federation import AsyncExecutor
from repro.metasearch.selection import Cori
from repro.cache import CachePolicy
from repro.corpus import CollectionSpec, generate_collection
from repro.metasearch import Metasearcher
from repro.observability import (
    TraceCollector,
    Tracer,
    render_ndjson,
    stitch_traces,
)
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

from tests.broker.util import demo_population


def _traced_network_root(n_leaves=3, executor=None):
    internet = SimulatedInternet(seed=3)
    collector = TraceCollector()
    handles = []
    for index in range(n_leaves):
        leaf = LeafBroker(f"net-{index}")
        base = f"http://net-{index}.example.org/broker"
        publish_broker_leaf(internet, leaf, base, trace_sink=collector)
        handles.append(NetworkLeafHandle(internet, base, leaf.leaf_id))
    root = RootBroker(handles, executor=executor)
    population = demo_population()
    for source_id in sorted(population):
        root.apply_delta(source_id, population[source_id])
    return root, collector


def _span_rows(rows):
    return [row for row in rows if row["kind"] == "span"]


class TestStitchedConsultation:
    def _run(self, executor=None):
        root, collector = _traced_network_root(executor=executor)
        tracer = Tracer()
        selected = root.select(Cori(), ["databases", "medicine"], 3, tracer=tracer)
        assert selected
        trace = tracer.trace()
        rows = stitch_traces(trace, collector.traces())
        return trace, collector, rows

    def test_one_trace_id_across_processes(self):
        trace, collector, rows = self._run()
        assert collector.traces(trace.trace_id)  # fragments did arrive
        assert {row["trace_id"] for row in rows} == {trace.trace_id}

    def test_fragments_nest_under_the_issuing_rpc_spans(self):
        trace, _, rows = self._run()
        spans = _span_rows(rows)
        by_id = {row["span_id"]: row for row in spans}
        client_rpc_ids = {
            row["span_id"] for row in spans if row["name"].startswith("rpc:")
        }
        fragment_roots = [
            row
            for row in spans
            if row["name"].startswith("leaf:") and row["parent_id"] in by_id
        ]
        # Every server-side fragment hangs off exactly the client-side
        # rpc span that issued it — the cross-process stitch.
        served = [row for row in spans if row["name"].startswith("leaf:")]
        assert served
        assert fragment_roots == served
        for row in served:
            assert row["parent_id"] in client_rpc_ids
            parent = by_id[row["parent_id"]]
            leaf_id = row["name"].split(":")[1]
            assert parent["name"].endswith(f":{leaf_id}")

    def test_three_level_nesting_root_rpc_leaf(self):
        trace, _, rows = self._run()
        spans = _span_rows(rows)
        by_id = {row["span_id"]: row for row in spans}
        leaf_row = next(row for row in spans if row["name"].startswith("leaf:"))
        rpc_row = by_id[leaf_row["parent_id"]]
        select_row = by_id[rpc_row["parent_id"]]
        assert select_row["name"] == "select:broker"
        assert select_row["parent_id"] is None

    def test_probe_and_select_endpoints_both_traced(self):
        _, _, rows = self._run()
        names = {row["name"] for row in _span_rows(rows)}
        assert any(name.startswith("rpc:probe:") for name in names)
        assert any(name.startswith("rpc:select:") for name in names)
        assert any(
            name.startswith("leaf:") and name.endswith(":probe")
            for name in names
        )
        assert any(
            name.startswith("leaf:") and name.endswith(":select")
            for name in names
        )

    def test_parallel_executor_stitches_identically(self):
        # Contextvars do not cross AsyncExecutor's worker pool (leaf
        # consultations are plain callables); the explicit capture in
        # RootBroker._consult must keep the stitch intact anyway.
        trace, _, rows = self._run(executor=AsyncExecutor(max_concurrency=4))
        spans = _span_rows(rows)
        assert {row["trace_id"] for row in spans} == {trace.trace_id}
        rpc_ids = {
            row["span_id"] for row in spans if row["name"].startswith("rpc:")
        }
        served = [row for row in spans if row["name"].startswith("leaf:")]
        assert served
        assert all(row["parent_id"] in rpc_ids for row in served)

    def test_ndjson_is_one_json_object_per_line(self):
        trace, collector, _ = self._run()
        text = render_ndjson(trace, collector.traces())
        lines = text.strip().split("\n")
        parsed = [json.loads(line) for line in lines]
        assert all(row["trace_id"] == trace.trace_id for row in parsed)

    def test_unrelated_fragments_are_not_stitched(self):
        trace, collector, _ = self._run()
        stranger = Tracer(trace_id="f00d" * 4)
        with stranger.span("serve:query:other"):
            pass
        collector.add(stranger.trace())
        rows = stitch_traces(trace, collector.traces())
        assert {row["trace_id"] for row in rows} == {trace.trace_id}


class TestUntracedPathUnchanged:
    def test_no_tracer_no_fragments(self):
        root, collector = _traced_network_root()
        root.select(Cori(), ["databases"], 3)
        assert len(collector) == 0

    def test_no_sink_means_bare_handlers(self):
        internet = SimulatedInternet(seed=3)
        leaf = LeafBroker("bare-0")
        base = "http://bare-0.example.org/broker"
        publish_broker_leaf(internet, leaf, base)  # no sink
        handle = NetworkLeafHandle(internet, base, leaf.leaf_id)
        root = RootBroker([handle])
        population = demo_population()
        for source_id in sorted(population):
            root.apply_delta(source_id, population[source_id])
        tracer = Tracer()
        assert root.select(Cori(), ["databases"], 3, tracer=tracer)
        # The client side still traces; there is just nothing to stitch.
        names = [row["name"] for row in stitch_traces(tracer.trace())]
        assert any(name.startswith("rpc:") for name in names)
        assert not any(name.startswith("leaf:") for name in names)


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
    fast_search = slow.search

    def slow_search(query):
        time.sleep(SLOW_MS / 1000.0)
        return fast_search(query)

    slow.search = slow_search
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

    def test_without_fragments_only_the_client_side_is_told(self, explained):
        result, _ = explained
        text = result.explain()
        assert f"query:{SLOW}" in text
        assert "serve:query:" not in text


class TestExplainCommandNdjson:
    def test_the_same_rows_come_out_of_ndjson(self, tmp_path, capsys, monkeypatch):
        from repro.__main__ import main

        slow, fast_search = "Source-IR", StartsSource.search

        def search(self, query):
            if self.source_id == slow:
                time.sleep(SLOW_MS / 1000.0)
            return fast_search(self, query)

        monkeypatch.setattr(StartsSource, "search", search)
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
