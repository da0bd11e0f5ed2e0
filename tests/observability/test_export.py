"""The exporters: Prometheus text, and the trace as rows / NDJSON."""

import json

from repro.observability import (
    MetricsRegistry,
    TraceContext,
    Tracer,
    render_ndjson,
    render_prometheus,
    stitch_traces,
)


def _registry_with_traffic() -> MetricsRegistry:
    registry = MetricsRegistry()
    requests = registry.counter(
        "source_requests_total", "Wire requests.", labels=("source_id", "outcome")
    )
    requests.labels(source_id="S1", outcome="ok").inc(3)
    requests.labels(source_id="S1", outcome="error").inc()
    registry.gauge("queue_depth", "Depth.", labels=("source_id",)).labels(
        source_id="S1"
    ).set(0.75)
    histogram = registry.histogram(
        "latency_ms", "Latency.", labels=("source_id",), buckets=(1.0, 10.0)
    )
    child = histogram.labels(source_id="S1")
    for value in (0.5, 5.0, 50.0):
        child.observe(value)
    return registry


class TestPrometheus:
    def test_full_exposition_shape(self):
        text = render_prometheus(_registry_with_traffic())
        lines = text.splitlines()
        assert "# HELP source_requests_total Wire requests." in lines
        assert "# TYPE source_requests_total counter" in lines
        assert 'source_requests_total{source_id="S1",outcome="ok"} 3' in lines
        assert 'source_requests_total{source_id="S1",outcome="error"} 1' in lines
        assert "# TYPE queue_depth gauge" in lines
        assert 'queue_depth{source_id="S1"} 0.75' in lines
        assert "# TYPE latency_ms histogram" in lines
        # Cumulative buckets plus +Inf, sum and count.
        assert 'latency_ms_bucket{source_id="S1",le="1"} 1' in lines
        assert 'latency_ms_bucket{source_id="S1",le="10"} 2' in lines
        assert 'latency_ms_bucket{source_id="S1",le="+Inf"} 3' in lines
        assert 'latency_ms_sum{source_id="S1"} 55.5' in lines
        assert 'latency_ms_count{source_id="S1"} 3' in lines
        assert text.endswith("\n")

    def test_rendering_is_deterministic(self):
        registry = _registry_with_traffic()
        assert render_prometheus(registry) == render_prometheus(registry)

    def test_golden_parse_round_trip(self):
        """Every sample line parses as the exposition format requires."""
        text = render_prometheus(_registry_with_traffic())
        seen_types: dict[str, str] = {}
        for line in text.splitlines():
            assert line == line.strip()
            if line.startswith("# TYPE"):
                _, _, name, kind = line.split(" ", 3)
                assert kind in ("counter", "gauge", "histogram")
                seen_types[name] = kind
                continue
            if line.startswith("#"):
                continue
            name_and_labels, value = line.rsplit(" ", 1)
            float(value)  # every sample value is a number
            name = name_and_labels.split("{", 1)[0]
            base = name
            for suffix in ("_bucket", "_sum", "_count"):
                if name.endswith(suffix) and name[: -len(suffix)] in seen_types:
                    base = name[: -len(suffix)]
            assert base in seen_types
        assert set(seen_types) == {
            "source_requests_total", "queue_depth", "latency_ms",
        }

    def test_label_values_escaped(self):
        registry = MetricsRegistry()
        registry.counter("odd_total", labels=("why",)).labels(
            why='quote " slash \\ newline \n'
        ).inc()
        text = render_prometheus(registry)
        assert r'why="quote \" slash \\ newline \n"' in text

    def test_empty_and_disabled_registries_render_empty(self):
        assert render_prometheus(MetricsRegistry()) == ""
        assert render_prometheus(MetricsRegistry.disabled()) == ""


def _traced_round() -> Tracer:
    tracer = Tracer(trace_id="t-42")
    with tracer.span("search", terms="databases"):
        with tracer.span("select", k=2):
            pass
        with tracer.span("query") as query_span:
            with tracer.span("query:S1", parent=query_span, url="http://s1"):
                pass
            with tracer.span("query:S2", parent=query_span):
                pass
        with tracer.span("merge"):
            pass
    return tracer


class TestNdjson:
    """The one row producer: ``stitch_traces`` (a local trace is a
    stitch with no fragments)."""

    def test_span_ids_are_depth_first_with_parent_links(self):
        tracer = _traced_round()
        rows = stitch_traces(tracer.trace())
        spans = [row for row in rows if row["kind"] == "span"]
        # Stable ids: the tracer's own hex ids, in depth-first order.
        assert [row["span_id"] for row in spans] == [
            span.span_id for span in tracer.trace().walk()
        ]
        assert all(len(row["span_id"]) == 16 for row in spans)
        by_name = {row["name"]: row for row in spans}
        assert by_name["search"]["parent_id"] is None
        assert by_name["select"]["parent_id"] == by_name["search"]["span_id"]
        assert by_name["query:S1"]["parent_id"] == by_name["query"]["span_id"]
        assert all(row["trace_id"] == "t-42" for row in rows)

    def test_root_parent_is_the_remote_callers_span(self):
        tracer = Tracer(context=TraceContext("ab" * 8, "cd" * 8))
        with tracer.span("serve:query:S1"):
            pass
        (row,) = stitch_traces(tracer.trace())
        assert row["parent_id"] == "cd" * 8
        assert row["trace_id"] == "ab" * 8

    def test_every_line_is_one_json_object(self):
        text = render_ndjson(_traced_round().trace())
        lines = text.splitlines()
        assert len(lines) == 6  # one row per span, nothing else
        for line in lines:
            assert json.loads(line)["kind"] == "span"

    def test_empty_trace_renders_empty(self):
        assert render_ndjson(Tracer().trace()) == ""

    def test_open_spans_are_flagged_with_their_elapsed_time(self):
        clock = [0.0]
        tracer = Tracer(clock=lambda: clock[0])
        with tracer.span("work"):
            clock[0] = 0.1
            (row,) = stitch_traces(tracer.trace())
        assert row["open"] is True
        assert row["duration_ms"] == 100.0


class TestTraceIds:
    def test_tracer_ids_are_unique_by_default(self):
        assert Tracer().trace_id != Tracer().trace_id

    def test_explicit_id_flows_to_trace(self):
        assert Tracer(trace_id="abc").trace().trace_id == "abc"
