"""Server-side transport bindings: publish sources and resources.

Each source exposes four endpoints under its base URL, matching the
linkages its metadata advertises:

* ``{base}/query``         — POST an @SQuery, receive the result stream
* ``{base}/meta``          — GET the @SMetaAttributes blob
* ``{base}/cont_sum.txt``  — GET the @SContentSummary blob
* ``{base}/sample``        — GET the @SSampleResults blob

A resource additionally exposes ``{base}/resource`` (GET @SResource)
and routes queries whose ``Sources`` attribute names sibling sources
through resource-side duplicate elimination.
"""

from __future__ import annotations

from repro.observability.tracing import TraceCollector, TraceContext, Tracer
from repro.resource.resource import Resource
from repro.source.source import StartsSource
from repro.starts.errors import ProtocolError, SoifSyntaxError
from repro.starts.query import SQuery
from repro.starts.soif import parse_soif
from repro.transport.network import (
    FaultProfile,
    HostProfile,
    SimulatedInternet,
    current_request_headers,
)

__all__ = [
    "publish_source",
    "publish_resource",
    "publish_metrics",
    "publish_broker_leaf",
]


def _traced(span_name: str, handler, sink: TraceCollector | None):
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


def publish_source(
    internet: SimulatedInternet,
    source: StartsSource,
    profile: HostProfile | None = None,
    resource: Resource | None = None,
    faults: FaultProfile | None = None,
    trace_sink: TraceCollector | None = None,
) -> str:
    """Register a source's endpoints; returns its query URL.

    If ``resource`` is given, queries posted to this source are routed
    through the resource so the ``Sources`` attribute works.  An
    optional ``faults`` profile makes the source's host misbehave
    deterministically (see :class:`~repro.transport.FaultProfile`).
    With ``trace_sink``, query requests carrying a ``traceparent``
    header record a server-side span into the sink, stitched under the
    caller's trace.
    """
    base = source.base_url
    host = base.split("//", 1)[-1].split("/", 1)[0]
    internet.register_host(host, profile, faults)

    def handle_query(body: bytes) -> bytes:
        query = SQuery.from_soif(parse_soif(body))
        if resource is not None:
            results = resource.search(source.source_id, query)
        else:
            results = source.search(query)
        return results.to_soif_stream().encode("utf-8")

    internet.register_post(
        f"{base}/query",
        _traced(f"serve:query:{source.source_id}", handle_query, trace_sink),
    )
    internet.register_get(
        f"{base}/meta", lambda: source.metadata().to_soif().dump().encode("utf-8")
    )
    internet.register_get(
        f"{base}/cont_sum.txt",
        lambda: source.content_summary().to_soif().dump().encode("utf-8"),
    )
    internet.register_get(
        f"{base}/sample",
        lambda: source.sample_results().to_soif().dump().encode("utf-8"),
    )

    def handle_scan(body: bytes) -> bytes:
        from repro.source.scan import ScanRequest

        request = ScanRequest.from_soif(parse_soif(body))
        response = source.scan(request.field, request.start_term, request.count)
        return response.to_soif().dump().encode("utf-8")

    internet.register_post(f"{base}/scan", handle_scan)
    return f"{base}/query"


def publish_resource(
    internet: SimulatedInternet,
    resource: Resource,
    base_url: str,
    profile: HostProfile | None = None,
    source_profiles: dict[str, HostProfile] | None = None,
    source_faults: dict[str, FaultProfile] | None = None,
) -> str:
    """Register a resource and all of its sources; returns the SResource URL.

    Args:
        internet: the simulated network.
        resource: the resource to publish.
        base_url: where the @SResource blob lives (``{base}/resource``).
        profile: host profile for the resource's own host.
        source_profiles: optional per-source-id host profiles.
        source_faults: optional per-source-id fault-injection profiles.
    """
    host = base_url.split("//", 1)[-1].split("/", 1)[0]
    internet.register_host(host, profile)
    internet.register_get(
        f"{base_url}/resource",
        lambda: resource.describe().to_soif().dump().encode("utf-8"),
    )
    for source_id in resource.source_ids():
        source = resource.source(source_id)
        source_profile = (source_profiles or {}).get(source_id)
        fault_profile = (source_faults or {}).get(source_id)
        publish_source(
            internet, source, source_profile, resource=resource, faults=fault_profile
        )
    return f"{base_url}/resource"


def publish_broker_leaf(
    internet: SimulatedInternet,
    leaf,
    base_url: str,
    profile: HostProfile | None = None,
    faults: FaultProfile | None = None,
    trace_sink: TraceCollector | None = None,
) -> str:
    """Publish a :class:`~repro.broker.LeafBroker` as network endpoints.

    ZBroker-style: the leaf becomes a set of JSON endpoints under
    ``base_url`` —

    * ``POST {base}/probe``    — aggregate shard statistics for terms
    * ``POST {base}/select``   — the shard's exact top-k fragment
    * ``POST {base}/delta``    — one summary delta (SOIF text or null)
    * ``GET  {base}/stats``    — shard stats (sources/terms/generation)

    so a :class:`~repro.broker.RootBroker` holding
    :class:`~repro.broker.NetworkLeafHandle`\\ s drives it exactly like
    an in-process leaf, latency and fault profiles included.  A request
    body that does not decode to the expected fields raises
    :class:`~repro.starts.errors.ProtocolError` naming the endpoint and
    the field.  Returns the base URL.
    """
    import json
    from dataclasses import asdict

    from repro.broker.leaf import CorpusStats
    from repro.broker.remote import decode_wire_object, wire_field
    from repro.metasearch.selection import SELECTOR_REGISTRY
    from repro.starts.metadata import SContentSummary

    host = base_url.split("//", 1)[-1].split("/", 1)[0]
    internet.register_host(host, profile, faults)

    def _selector(payload: dict, where: str):
        name = wire_field(payload, "selector", str, where)
        factory = SELECTOR_REGISTRY.get(name)
        if factory is None:
            raise ProtocolError(f"{where}: unknown selector on the wire: {name!r}")
        return factory()

    def _stats(payload: dict, where: str) -> CorpusStats:
        stats = wire_field(payload, "stats", dict, where)
        return CorpusStats(
            n_sources=wire_field(stats, "n_sources", int, where),
            clamped_mass_total=wire_field(stats, "clamped_mass_total", int, where),
            collection_frequencies=wire_field(
                stats, "collection_frequencies", dict, where, of=int
            ),
        )

    def _summary(payload: dict, where: str) -> SContentSummary | None:
        """The delta's summary field: SOIF text, or null on forget."""
        if payload.get("summary") is None:
            return None
        text = wire_field(payload, "summary", str, where)
        try:
            return SContentSummary.from_soif(parse_soif(text.encode("utf-8")))
        except SoifSyntaxError as error:
            raise ProtocolError(
                f"{where}: ill-typed field 'summary': {error}"
            ) from None

    def handle_probe(payload: dict, where: str) -> dict:
        probe = leaf.probe(
            wire_field(payload, "terms", list, where, of=str),
            wire_field(payload, "k", int, where),
        )
        return asdict(probe)

    def handle_select(payload: dict, where: str) -> dict:
        candidates = leaf.select_candidates(
            _selector(payload, where),
            wire_field(payload, "terms", list, where, of=str),
            wire_field(payload, "k", int, where),
            _stats(payload, where),
        )
        return {"candidates": candidates}

    def handle_delta(payload: dict, where: str) -> dict:
        leaf.apply_delta(
            wire_field(payload, "source", str, where),
            _summary(payload, where),
        )
        return {"generation": leaf.index.generation}

    def decoded(url: str, handler):
        """The endpoint's one decode and one encode around ``handler``."""

        def handle(body: bytes) -> bytes:
            reply = handler(decode_wire_object(body, url), url)
            return json.dumps(reply).encode("utf-8")

        return handle

    leaf_id = getattr(leaf, "leaf_id", "leaf")
    for endpoint, handler in (
        ("probe", handle_probe),
        ("select", handle_select),
        ("delta", handle_delta),
    ):
        url = f"{base_url}/{endpoint}"
        internet.register_post(
            url,
            _traced(f"leaf:{leaf_id}:{endpoint}", decoded(url, handler), trace_sink),
        )
    internet.register_get(
        f"{base_url}/stats",
        lambda: json.dumps(leaf.shard_stats()).encode("utf-8"),
    )
    return base_url


def publish_metrics(
    internet: SimulatedInternet,
    base_url: str,
    registry=None,
    profile: HostProfile | None = None,
) -> str:
    """Expose a ``/metrics`` endpoint on the simulated internet.

    ``GET {base_url}/metrics`` renders ``registry`` (default: the
    process-wide one, resolved at request time) as Prometheus text —
    the simulated-wire twin of the real HTTP server's endpoint.
    Returns the metrics URL.
    """
    from repro.observability.export import render_prometheus
    from repro.observability.metrics import get_registry

    host = base_url.split("//", 1)[-1].split("/", 1)[0]
    internet.register_host(host, profile)
    internet.register_get(
        f"{base_url}/metrics",
        lambda: render_prometheus(
            registry if registry is not None else get_registry()
        ).encode("utf-8"),
    )
    return f"{base_url}/metrics"
