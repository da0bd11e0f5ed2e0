"""Observability: traces, process-wide metrics, the query log, exporters.

Layers, from one operation outward:

* tracing (:class:`Tracer` / :class:`Trace`) — one operation's span
  tree and per-source counters; :class:`TraceContext` carries the
  operation across processes (W3C ``traceparent`` on the wire) and
  :class:`TraceCollector` gathers the server-side fragments.
  :func:`stitch_traces` turns a trace and its fragments into one list
  of rows forming one cross-process tree, which :func:`render_trace`
  prints as text and :func:`render_ndjson` as a structured event log;
* metrics (:class:`MetricsRegistry`) — longitudinal counters, gauges
  and histograms accumulated across every operation, exported as
  Prometheus text by :func:`render_prometheus` (histogram buckets can
  carry trace-id exemplars);
* the query log (:class:`QueryLog`) — one wide, flat
  :class:`QueryLogRecord` per search, ring-buffered and NDJSON-ready.

``MetasearchResult.explain()`` (``python -m repro explain``) is the one
reader that puts the three side by side for a finished search.
"""

from repro.observability.export import (
    render_ndjson,
    render_prometheus,
    stitch_traces,
)
from repro.observability.metrics import (
    DEFAULT_LATENCY_BUCKETS_MS,
    Counter,
    Gauge,
    Histogram,
    MetricFamily,
    MetricsRegistry,
    get_registry,
    linear_buckets,
    log_scale_buckets,
    set_registry,
)
from repro.observability.querylog import (
    QueryLog,
    QueryLogRecord,
    get_query_log,
    set_query_log,
)
from repro.observability.render import render_trace
from repro.observability.tracing import (
    CacheCounters,
    SourceCounters,
    Span,
    Trace,
    TraceCollector,
    TraceContext,
    Tracer,
    ambient_span,
    current_ambient_span,
    current_trace_context,
    trace_context,
)

__all__ = [
    "render_ndjson",
    "render_prometheus",
    "stitch_traces",
    "DEFAULT_LATENCY_BUCKETS_MS",
    "Counter",
    "Gauge",
    "Histogram",
    "MetricFamily",
    "MetricsRegistry",
    "get_registry",
    "linear_buckets",
    "log_scale_buckets",
    "set_registry",
    "QueryLog",
    "QueryLogRecord",
    "get_query_log",
    "set_query_log",
    "render_trace",
    "CacheCounters",
    "SourceCounters",
    "Span",
    "Trace",
    "TraceCollector",
    "TraceContext",
    "Tracer",
    "ambient_span",
    "current_ambient_span",
    "current_trace_context",
    "trace_context",
]
