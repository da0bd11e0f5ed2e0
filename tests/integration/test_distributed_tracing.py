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

from repro.broker import (
    LeafBroker,
    NetworkLeafHandle,
    RootBroker,
    publish_broker_leaf,
)
from repro.federation import AsyncExecutor
from repro.metasearch.selection import Cori
from repro.observability import (
    TraceCollector,
    Tracer,
    render_stitched_ndjson,
    stitch_traces,
    stitched_chrome_trace,
    trace_events,
)
from repro.transport import SimulatedInternet

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
        text = render_stitched_ndjson(trace, collector.traces())
        lines = text.strip().split("\n")
        parsed = [json.loads(line) for line in lines]
        assert all(row["trace_id"] == trace.trace_id for row in parsed)

    def test_chrome_trace_gives_fragments_their_own_pids(self):
        trace, collector, _ = self._run()
        doc = stitched_chrome_trace(trace, collector.traces())
        pids = {event["pid"] for event in doc["traceEvents"]}
        assert 1 in pids  # the client
        assert len(pids) > 1  # at least one serving process
        remote_parents = [
            event["args"]["remote_parent"]
            for event in doc["traceEvents"]
            if "remote_parent" in event["args"]
        ]
        client_ids = {
            span.span_id for span in trace.walk() if span.span_id
        }
        assert remote_parents
        assert all(parent in client_ids for parent in remote_parents)

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
        assert stitch_traces(tracer.trace(), []) == trace_events(
            tracer.trace(), stable_ids=True
        )
