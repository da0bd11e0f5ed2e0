"""Exporters: Prometheus text exposition and the trace's row form.

* :func:`render_prometheus` — the registry's families in the Prometheus
  text exposition format, ready to serve from a ``/metrics`` endpoint
  (both transports do; see :mod:`repro.transport`);
* :func:`stitch_traces` — a finished :class:`~repro.observability.Trace`
  as a flat list of structured rows: one per span, with the operation's
  trace id and the spans' stable hex ids threaded through, then the
  per-source and cache counters.  Server-side fragments a
  :class:`~repro.observability.TraceCollector` gathered join the same
  list (matched by trace id, nested by the fragments' remote parent span
  ids), so a local trace is a stitch with no fragments.  It is the one
  row producer: :func:`render_ndjson` prints the rows as the NDJSON event
  log a pipeline ingests, and
  :func:`~repro.observability.render_trace` as the text timeline.
"""

from __future__ import annotations

import dataclasses
import json
import math
from collections.abc import Iterable

from repro.observability.metrics import Histogram, MetricsRegistry
from repro.observability.tracing import Span, Trace

__all__ = ["render_prometheus", "stitch_traces", "render_ndjson"]


# -- Prometheus text exposition -------------------------------------------


def _escape_label_value(value: str) -> str:
    return value.replace("\\", "\\\\").replace('"', '\\"').replace("\n", "\\n")


def _escape_help(text: str) -> str:
    return text.replace("\\", "\\\\").replace("\n", "\\n")


def _format_value(value: float) -> str:
    # Non-finite values are legal sample values (a histogram that
    # observed +inf has sum=inf) and must render as the exposition
    # format's spellings, not crash int().
    if math.isnan(value):
        return "NaN"
    if math.isinf(value):
        return "+Inf" if value > 0 else "-Inf"
    if value == int(value) and abs(value) < 1e15:
        return str(int(value))
    return repr(value)


def _label_text(names: tuple[str, ...], values: tuple[str, ...]) -> str:
    if not names:
        return ""
    pairs = ",".join(
        f'{name}="{_escape_label_value(value)}"'
        for name, value in zip(names, values)
    )
    return "{" + pairs + "}"


def _exemplar_text(histogram: Histogram, index: int) -> str:
    """OpenMetrics-style exemplar suffix for bucket ``index`` (or '')."""
    exemplar = histogram.exemplars.get(index)
    if exemplar is None:
        return ""
    trace_id, observed = exemplar
    return (
        f' # {{trace_id="{_escape_label_value(trace_id)}"}} '
        f"{_format_value(observed)}"
    )


def _histogram_lines(
    name: str,
    names: tuple[str, ...],
    values: tuple[str, ...],
    histogram: Histogram,
    exemplars: bool = False,
) -> list[str]:
    lines: list[str] = []
    cumulative = 0
    for index, (bound, bucket_count) in enumerate(
        zip(histogram.bounds, histogram.bucket_counts)
    ):
        cumulative += bucket_count
        le_names = names + ("le",)
        le_values = values + (_format_value(bound),)
        suffix = _exemplar_text(histogram, index) if exemplars else ""
        lines.append(
            f"{name}_bucket{_label_text(le_names, le_values)} {cumulative}"
            f"{suffix}"
        )
    suffix = (
        _exemplar_text(histogram, len(histogram.bounds)) if exemplars else ""
    )
    lines.append(
        f'{name}_bucket{_label_text(names + ("le",), values + ("+Inf",))} '
        f"{histogram.count}{suffix}"
    )
    lines.append(f"{name}_sum{_label_text(names, values)} "
                 f"{_format_value(histogram.sum)}")
    lines.append(f"{name}_count{_label_text(names, values)} {histogram.count}")
    return lines


def render_prometheus(registry: MetricsRegistry, exemplars: bool = False) -> str:
    """The registry as Prometheus text exposition (version 0.0.4).

    Families sort by name and children by label values, so two renders
    of the same state are byte-identical — golden tests and diff-based
    scrapers both rely on that.  ``exemplars=True`` appends
    OpenMetrics-style ``# {trace_id="..."} value`` exemplar suffixes to
    histogram bucket lines that have one; the default stays plain
    text-format 0.0.4 for scrapers that reject the extension.
    """
    lines: list[str] = []
    for family in registry.families():
        children = family.children()
        if not children:
            continue
        if family.help_text:
            lines.append(f"# HELP {family.name} {_escape_help(family.help_text)}")
        lines.append(f"# TYPE {family.name} {family.kind}")
        for label_values, instrument in children:
            if family.kind == "histogram":
                lines.extend(
                    _histogram_lines(
                        family.name,
                        family.label_names,
                        label_values,
                        instrument,
                        exemplars=exemplars,
                    )
                )
            else:
                lines.append(
                    f"{family.name}{_label_text(family.label_names, label_values)} "
                    f"{_format_value(instrument.value)}"
                )
    return "\n".join(lines) + "\n" if lines else ""


# -- the trace as rows -------------------------------------------------------


def _trace_rows(trace: Trace) -> list[dict]:
    """One trace's spans depth first, then its counter rows.

    Span ids are the tracer-assigned hex ids — the ids that cross the
    wire in ``traceparent`` headers — and a root span continuing a
    remote trace reports that caller's span id as its ``parent_id``.
    (Hand-built spans without an id get a synthesized ``local-N`` id.)
    """
    rows: list[dict] = []

    def visit(span: Span, parent_id: str | None) -> None:
        span_id = span.span_id or f"local-{len(rows) + 1}"
        rows.append(
            {
                "kind": "span",
                "trace_id": trace.trace_id,
                "span_id": span_id,
                "parent_id": parent_id,
                "name": span.name,
                "start_ms": round(span.start_ms, 3),
                "duration_ms": round(span.duration_ms, 3),
                "open": span.is_open,
                "attributes": dict(span.attributes),
            }
        )
        for child in span.children:
            visit(child, span_id)

    for span in trace.spans:
        visit(span, span.remote_parent_id or None)
    for source_id in sorted(trace.counters):
        tally = trace.counters[source_id]
        rows.append(
            {
                "kind": "source_counters",
                "trace_id": trace.trace_id,
                "source_id": source_id,
                "requests": tally.requests,
                "retries": tally.retries,
                "failures": tally.failures,
                "timeouts": tally.timeouts,
                "hedges": tally.hedges,
                "latency_ms": round(tally.latency_ms, 3),
                "backoff_ms": round(tally.backoff_ms, 3),
                "cost": round(tally.cost, 4),
            }
        )
    if trace.cache is not None:
        rows.append(
            {"kind": "cache_counters", "trace_id": trace.trace_id}
            | dataclasses.asdict(trace.cache)
        )
    return rows


def stitch_traces(root: Trace, fragments: Iterable[Trace] = ()) -> list[dict]:
    """A trace — with its server-side fragments, if any — as one row list.

    ``fragments`` is typically ``collector.traces()`` from one or more
    :class:`~repro.observability.TraceCollector` sinks; only fragments
    sharing the root's trace id are taken.  A fragment's root span —
    whose ``parent_id`` is the caller's span id carried in the
    ``traceparent`` header — hangs off the exact client-side span that
    issued the request, so the rows form a single cross-process tree
    under one trace id.
    """
    rows = _trace_rows(root)
    for fragment in fragments:
        if fragment.trace_id == root.trace_id:
            rows.extend(_trace_rows(fragment))
    return rows


def render_ndjson(trace: Trace, fragments: Iterable[Trace] = ()) -> str:
    """:func:`stitch_traces` as NDJSON: one JSON object per line."""
    return "".join(
        json.dumps(row, sort_keys=True) + "\n"
        for row in stitch_traces(trace, fragments)
    )
