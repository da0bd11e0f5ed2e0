"""Exposition hardening: escaping, non-finite values, exemplars."""

import math

from repro.observability import (
    MetricsRegistry,
    Tracer,
    render_prometheus,
    stitch_traces,
)


class TestEscaping:
    def test_help_text_escapes_backslash_and_newline(self):
        registry = MetricsRegistry()
        registry.counter("odd_total", help_text='back \\ slash\nnext "line"')
        registry.counter("odd_total").inc()
        text = render_prometheus(registry)
        assert "# HELP odd_total back \\\\ slash\\nnext \"line\"" in text
        assert "\nnext" not in text  # no raw newline splits the comment

    def test_label_escaping_survives_every_special(self):
        registry = MetricsRegistry()
        registry.gauge("g", labels=("v",)).labels(v='a\\b"c\nd').set(1.0)
        line = render_prometheus(registry).strip().split("\n")[-1]
        assert line == 'g{v="a\\\\b\\"c\\nd"} 1'

    def test_exemplar_trace_id_is_escaped(self):
        registry = MetricsRegistry()
        registry.histogram("h_ms", buckets=(10.0,)).observe(
            5.0, exemplar='bad"id\\'
        )
        text = render_prometheus(registry, exemplars=True)
        assert '# {trace_id="bad\\"id\\\\"} 5' in text


class TestNonFiniteValues:
    def test_infinite_gauge_renders_inf_spellings(self):
        registry = MetricsRegistry()
        registry.gauge("up").set(math.inf)
        registry.gauge("down").set(-math.inf)
        text = render_prometheus(registry)
        assert "down -Inf" in text
        assert "up +Inf" in text

    def test_nan_gauge_renders_nan(self):
        registry = MetricsRegistry()
        registry.gauge("weird").set(math.nan)
        assert "weird NaN" in render_prometheus(registry)

    def test_histogram_observing_inf_still_renders(self):
        registry = MetricsRegistry()
        histogram = registry.histogram("h_ms", buckets=(10.0,))
        histogram.observe(math.inf)
        histogram.observe(5.0)
        text = render_prometheus(registry)
        assert 'h_ms_bucket{le="10"} 1' in text
        assert 'h_ms_bucket{le="+Inf"} 2' in text
        assert "h_ms_sum +Inf" in text
        assert "h_ms_count 2" in text


class TestExemplars:
    def test_default_rendering_has_no_exemplars(self):
        registry = MetricsRegistry()
        registry.histogram("h_ms", buckets=(10.0,)).observe(5.0, exemplar="t1")
        assert "#" not in render_prometheus(registry).replace("# HELP", "").replace(
            "# TYPE", ""
        )

    def test_exemplar_lands_on_its_bucket_line(self):
        registry = MetricsRegistry()
        histogram = registry.histogram("h_ms", buckets=(10.0, 100.0))
        histogram.observe(5.0, exemplar="fast")
        histogram.observe(50.0, exemplar="slow")
        lines = render_prometheus(registry, exemplars=True).strip().split("\n")
        bucket_10 = next(line for line in lines if 'le="10"' in line)
        bucket_100 = next(line for line in lines if 'le="100"' in line)
        assert '# {trace_id="fast"} 5' in bucket_10
        assert '# {trace_id="slow"} 50' in bucket_100

    def test_last_exemplar_wins_within_a_bucket(self):
        registry = MetricsRegistry()
        histogram = registry.histogram("h_ms", buckets=(10.0,))
        histogram.observe(3.0, exemplar="first")
        histogram.observe(7.0, exemplar="second")
        text = render_prometheus(registry, exemplars=True)
        assert "second" in text
        assert "first" not in text

    def test_overflow_bucket_carries_exemplars_too(self):
        registry = MetricsRegistry()
        registry.histogram("h_ms", buckets=(10.0,)).observe(
            1000.0, exemplar="huge"
        )
        lines = render_prometheus(registry, exemplars=True).strip().split("\n")
        overflow = next(line for line in lines if 'le="+Inf"' in line)
        assert '# {trace_id="huge"} 1000' in overflow

    def test_disabled_registry_swallows_exemplars(self):
        registry = MetricsRegistry.disabled()
        registry.histogram("h_ms", buckets=(10.0,)).observe(5.0, exemplar="t")
        assert render_prometheus(registry, exemplars=True) == ""


class TestStableIdExport:
    def test_stable_ids_are_the_tracer_assigned_hex(self):
        tracer = Tracer(trace_id="tt")
        with tracer.span("a") as span_a:
            with tracer.span("b") as span_b:
                pass
        rows = stitch_traces(tracer.trace())
        assert rows[0]["span_id"] == span_a.span_id
        assert rows[1]["span_id"] == span_b.span_id
        assert rows[1]["parent_id"] == span_a.span_id

    def test_hand_built_spans_get_local_ids(self):
        from repro.observability import Span, Trace

        trace = Trace(spans=[Span(name="manual", start_ms=10.0)], trace_id="m")
        rows = stitch_traces(trace)
        assert rows[0]["span_id"] == "local-1"
