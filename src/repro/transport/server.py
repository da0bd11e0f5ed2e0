"""Server-side transport: every endpoint declared once, served by either mount.

A publisher *declares* what it serves as an endpoint table
(:data:`~repro.transport.network.Endpoints`) and hands it to a *mount*
— the :class:`~repro.transport.network.SimulatedInternet` or a
:class:`~repro.transport.http.StartsHttpServer` socket.  The tables:

* a source (:func:`source_endpoints`), matching the linkages its
  metadata advertises —

  * ``POST {base}/query``         — an @SQuery in, the result stream out
  * ``POST {base}/scan``          — an @SScanRequest in, a vocabulary slice out
  * ``GET  {base}/meta``          — the @SMetaAttributes blob
  * ``GET  {base}/cont_sum.txt``  — the @SContentSummary blob
  * ``GET  {base}/sample``        — the @SSampleResults blob

* a resource (:func:`resource_endpoints`): ``GET {base}/resource``, the
  @SResource blob;
* the metrics registry (:func:`publish_metrics`): ``GET {base}/metrics``.

This package imports nothing from above it.

:func:`traced` is the one server-side span wrapper, on either mount.
"""

from __future__ import annotations

from collections.abc import Callable
from dataclasses import replace
from typing import TYPE_CHECKING

from repro.observability.export import render_prometheus
from repro.observability.metrics import get_registry
from repro.observability.tracing import TraceCollector, TraceContext, Tracer
from repro.resource.resource import Resource
from repro.source.scan import ScanRequest
from repro.source.source import StartsSource
from repro.starts.query import SQuery
from repro.starts.soif import parse_soif
from repro.transport.network import (
    Endpoints,
    FaultProfile,
    HostProfile,
    SimulatedInternet,
    _host_of,
    current_request_headers,
)

if TYPE_CHECKING:
    from repro.transport.http import StartsHttpServer

__all__ = [
    "source_endpoints",
    "resource_endpoints",
    "traced",
    "publish_endpoints",
    "publish_source",
    "publish_resource",
    "publish_metrics",
]


def traced(span_name: str, handler, sink: TraceCollector | None):
    """Wrap a POST handler with server-side span recording.

    When the inbound request carries a ``traceparent`` header and a
    ``sink`` is configured, the handler runs under a fresh per-request
    :class:`Tracer` continuing the wire context; the finished fragment
    lands in the sink for cross-process stitching.  Untraced requests
    (or ``sink=None``) run the bare handler — zero overhead.
    """
    if sink is None:
        return handler

    def wrapped(body: bytes) -> bytes:
        context = TraceContext.from_traceparent(
            current_request_headers().get("traceparent")
        )
        if context is None or not context.sampled:
            return handler(body)
        tracer = Tracer(context=context)
        span = tracer.open_span(span_name)
        try:
            return handler(body)
        except Exception as error:
            span.annotate(error=repr(error))
            raise
        finally:
            tracer.close_span(span)
            sink.add(tracer.trace())

    return wrapped


def _blob(protocol_object) -> bytes:
    return protocol_object.to_soif().dump().encode("utf-8")


def source_endpoints(
    source: StartsSource,
    base_url: str,
    resource: Resource | None = None,
    trace_sink: TraceCollector | None = None,
) -> Endpoints:
    """A source's endpoints, for a mount at ``base_url``.

    If ``resource`` is given, queries posted to this source are routed
    through the resource so the ``Sources`` attribute works.  With
    ``trace_sink``, query requests carrying a ``traceparent`` header
    record a ``serve:query:<id>`` span into the sink, stitched under
    the caller's trace.  Mounted anywhere but ``source.base_url``,
    ``meta`` advertises the three linkages where they are served.
    """

    def handle_query(body: bytes) -> bytes:
        query = SQuery.from_soif(parse_soif(body))
        if resource is not None:
            return resource.respond(source.source_id, query)
        return source.respond(query)

    def handle_scan(body: bytes) -> bytes:
        request = ScanRequest.from_soif(parse_soif(body))
        return _blob(source.scan(request.field, request.start_term, request.count))

    def handle_meta() -> bytes:
        metadata = source.metadata()
        if base_url != source.base_url:
            metadata = replace(
                metadata,
                linkage=f"{base_url}/query",
                content_summary_linkage=f"{base_url}/cont_sum.txt",
                sample_database_results=f"{base_url}/sample",
            )
        return _blob(metadata)

    return {
        ("POST", "query"): traced(
            f"serve:query:{source.source_id}", handle_query, trace_sink
        ),
        ("POST", "scan"): handle_scan,
        ("GET", "meta"): handle_meta,
        ("GET", "cont_sum.txt"): lambda: _blob(source.content_summary()),
        ("GET", "sample"): lambda: _blob(source.sample_results()),
    }


def resource_endpoints(
    resource: Resource, source_base: Callable[[str], str] | None = None
) -> Endpoints:
    """``resource``: the @SResource blob — :meth:`Resource.describe`,
    given where each source is mounted if not at its own ``base_url``."""
    return {("GET", "resource"): lambda: _blob(resource.describe(source_base))}


def publish_endpoints(
    mount: "SimulatedInternet | StartsHttpServer",
    base_url: str,
    endpoints: Endpoints,
    profile: HostProfile | None = None,
    faults: FaultProfile | None = None,
) -> None:
    """Mount a table under ``base_url``, first declaring its host's
    ``profile`` / ``faults`` if given — which only a simulation can: a
    socket's latency is measured and its faults are real."""
    if profile is not None or faults is not None:
        mount.register_host(_host_of(base_url), profile, faults)
    mount.mount(base_url, endpoints)


def publish_source(
    mount: "SimulatedInternet | StartsHttpServer",
    source: StartsSource,
    profile: HostProfile | None = None,
    resource: Resource | None = None,
    faults: FaultProfile | None = None,
    trace_sink: TraceCollector | None = None,
) -> str:
    """Mount a source's endpoints at its ``base_url``; returns its query URL.

    ``resource`` and ``trace_sink`` as in :func:`source_endpoints`.  An
    optional ``faults`` profile makes the source's host misbehave
    deterministically (see :class:`~repro.transport.FaultProfile`).
    """
    base = source.base_url
    endpoints = source_endpoints(source, base, resource, trace_sink)
    publish_endpoints(mount, base, endpoints, profile, faults)
    return f"{base}/query"


def publish_resource(
    mount: "SimulatedInternet | StartsHttpServer",
    resource: Resource,
    base_url: str,
    profile: HostProfile | None = None,
    source_profiles: dict[str, HostProfile] | None = None,
    source_faults: dict[str, FaultProfile] | None = None,
    trace_sink: TraceCollector | None = None,
) -> str:
    """Mount a resource and all of its sources; returns the SResource URL.

    Args:
        mount: where to serve it.
        resource: the resource to publish.
        base_url: where the @SResource blob lives (``{base}/resource``).
        profile: host profile for the resource's own host.
        source_profiles: optional per-source-id host profiles.
        source_faults: optional per-source-id fault-injection profiles.
        trace_sink: as in :func:`source_endpoints`, for every source.
    """
    publish_endpoints(mount, base_url, resource_endpoints(resource), profile)
    for source_id in resource.source_ids():
        publish_source(
            mount,
            resource.source(source_id),
            (source_profiles or {}).get(source_id),
            resource=resource,
            faults=(source_faults or {}).get(source_id),
            trace_sink=trace_sink,
        )
    return f"{base_url}/resource"


def publish_metrics(
    mount: "SimulatedInternet | StartsHttpServer",
    base_url: str,
    registry=None,
    profile: HostProfile | None = None,
) -> str:
    """Mount ``GET {base_url}/metrics``: ``registry`` (default: the
    process-wide one, resolved at request time) as Prometheus text.
    Returns the metrics URL."""

    def handle_metrics() -> bytes:
        current = registry if registry is not None else get_registry()
        return render_prometheus(current).encode("utf-8")

    publish_endpoints(mount, base_url, {("GET", "metrics"): handle_metrics}, profile)
    return f"{base_url}/metrics"
