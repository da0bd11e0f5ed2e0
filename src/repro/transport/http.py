"""A real HTTP transport over localhost sockets.

The simulated internet is ideal for experiments (deterministic latency,
cost accounting); this module is the deployment-shaped alternative: a
threading HTTP server that mounts STARTS sources and resources on real
URLs, and an :class:`HttpTransport` that plugs into the same
:class:`~repro.transport.client.StartsClient` (it implements the same
``fetch``/``post``/``log`` surface as
:class:`~repro.transport.network.SimulatedInternet`, with measured
wall-clock latencies in the log).

Endpoint layout mirrors ``publish_resource``: each source under
``/<source-id>/...`` and the resource blob at ``/resource``.
"""

from __future__ import annotations

import http.server
import threading
import time
import urllib.request

from repro.resource.resource import Resource
from repro.source.scan import ScanRequest
from repro.source.source import StartsSource
from repro.starts.errors import StartsError
from repro.starts.query import SQuery
from repro.starts.soif import parse_soif
from repro.transport.network import AccessRecord, TransportError, TransportTimeout

__all__ = ["StartsHttpServer", "HttpTransport"]


class StartsHttpServer:
    """Serves one resource (and its sources) over HTTP on localhost.

    Besides the STARTS endpoints, ``GET /metrics`` serves the process
    metrics registry in the Prometheus text exposition format —
    ``registry`` defaults to the process-wide one at request time.
    """

    def __init__(
        self,
        resource: Resource,
        host: str = "127.0.0.1",
        port: int = 0,
        registry=None,
        trace_sink=None,
    ) -> None:
        self._resource = resource
        self._registry = registry
        #: Optional :class:`~repro.observability.TraceCollector`: query
        #: POSTs carrying a ``traceparent`` header record a server-side
        #: span fragment here, stitched under the caller's trace.
        self.trace_sink = trace_sink
        self._server = http.server.ThreadingHTTPServer(
            (host, port), self._make_handler()
        )
        self._thread: threading.Thread | None = None

    @property
    def base_url(self) -> str:
        host, port = self._server.server_address[:2]
        return f"http://{host}:{port}"

    def resource_url(self) -> str:
        return f"{self.base_url}/resource"

    def source_query_url(self, source_id: str) -> str:
        return f"{self.base_url}/{source_id}/query"

    def start(self) -> str:
        """Start serving in a daemon thread; returns the base URL."""
        self._thread = threading.Thread(
            target=self._server.serve_forever, daemon=True
        )
        self._thread.start()
        return self.base_url

    def stop(self) -> None:
        self._server.shutdown()
        self._server.server_close()
        if self._thread is not None:
            self._thread.join(timeout=5)

    def __enter__(self) -> "StartsHttpServer":
        self.start()
        return self

    def __exit__(self, *exc_info) -> None:
        self.stop()

    # -- request handling -------------------------------------------------

    def _make_handler(self):
        resource = self._resource
        base_url = lambda: self.base_url  # noqa: E731 - resolved per request
        registry_now = lambda: self._registry  # noqa: E731 - resolved per request
        sink_now = lambda: self.trace_sink  # noqa: E731 - resolved per request

        class Handler(http.server.BaseHTTPRequestHandler):
            def log_message(self, *args) -> None:  # quiet test output
                pass

            def _send(self, status: int, body: bytes) -> None:
                self.send_response(status)
                self.send_header("Content-Type", "text/plain; charset=utf-8")
                self.send_header("Content-Length", str(len(body)))
                self.end_headers()
                self.wfile.write(body)

            def _source_for(self, source_id: str) -> StartsSource | None:
                if source_id in resource:
                    return resource.source(source_id)
                return None

            def do_GET(self) -> None:
                parts = self.path.strip("/").split("/")
                if parts == ["metrics"]:
                    from repro.observability.export import render_prometheus
                    from repro.observability.metrics import get_registry

                    registry = registry_now() or get_registry()
                    body = render_prometheus(registry).encode("utf-8")
                    self.send_response(200)
                    self.send_header(
                        "Content-Type", "text/plain; version=0.0.4; charset=utf-8"
                    )
                    self.send_header("Content-Length", str(len(body)))
                    self.end_headers()
                    self.wfile.write(body)
                    return
                if parts == ["resource"]:
                    described = resource.describe()
                    # Rewrite metadata URLs onto this server.
                    from repro.starts.metadata import SResource

                    rewritten = SResource(
                        source_list=tuple(
                            (source_id, f"{base_url()}/{source_id}/meta")
                            for source_id, _ in described.source_list
                        )
                    )
                    self._send(200, rewritten.to_soif().dump().encode("utf-8"))
                    return
                if len(parts) == 2:
                    source = self._source_for(parts[0])
                    if source is not None:
                        blob = self._get_blob(source, parts[1])
                        if blob is not None:
                            self._send(200, blob)
                            return
                self._send(404, b"not found")

            def _get_blob(self, source: StartsSource, name: str) -> bytes | None:
                if name == "meta":
                    metadata = source.metadata()
                    # The source's own base_url is not served here;
                    # rewrite the linkages onto this server.
                    from dataclasses import replace

                    metadata = replace(
                        metadata,
                        linkage=f"{base_url()}/{source.source_id}/query",
                        content_summary_linkage=(
                            f"{base_url()}/{source.source_id}/cont_sum.txt"
                        ),
                        sample_database_results=(
                            f"{base_url()}/{source.source_id}/sample"
                        ),
                    )
                    return metadata.to_soif().dump().encode("utf-8")
                if name == "cont_sum.txt":
                    return source.content_summary().to_soif().dump().encode("utf-8")
                if name == "sample":
                    return source.sample_results().to_soif().dump().encode("utf-8")
                return None

            def _serve_query(self, source: StartsSource, query: SQuery):
                sink = sink_now()
                handle = lambda: resource.search(  # noqa: E731
                    source.source_id, query
                )
                if sink is None:
                    return handle()
                from repro.observability.tracing import TraceContext, Tracer

                context = TraceContext.from_traceparent(
                    self.headers.get("traceparent")
                )
                if context is None or not context.sampled:
                    return handle()
                tracer = Tracer(context=context)
                span = tracer.open_span(f"serve:query:{source.source_id}")
                try:
                    return handle()
                except Exception as error:
                    span.annotate(error=repr(error))
                    raise
                finally:
                    tracer.close_span(span)
                    sink.add(tracer.trace())

            def do_POST(self) -> None:
                length = int(self.headers.get("Content-Length", "0"))
                body = self.rfile.read(length)
                parts = self.path.strip("/").split("/")
                if len(parts) != 2:
                    self._send(404, b"not found")
                    return
                source = self._source_for(parts[0])
                if source is None:
                    self._send(404, b"unknown source")
                    return
                try:
                    if parts[1] == "query":
                        query = SQuery.from_soif(parse_soif(body))
                        results = self._serve_query(source, query)
                        self._send(200, results.to_soif_stream().encode("utf-8"))
                        return
                    if parts[1] == "scan":
                        request = ScanRequest.from_soif(parse_soif(body))
                        response = source.scan(
                            request.field, request.start_term, request.count
                        )
                        self._send(200, response.to_soif().dump().encode("utf-8"))
                        return
                except StartsError as error:
                    # The request's own fault: a body that does not
                    # decode, or a query the protocol rejects.
                    self._send(400, str(error).encode("utf-8"))
                    return
                except Exception as error:
                    self._send(500, repr(error).encode("utf-8"))
                    return
                self._send(404, b"not found")

        return Handler


class HttpTransport:
    """``fetch``/``post`` over real HTTP; drop-in for SimulatedInternet
    wherever only the client surface is needed."""

    def __init__(self, timeout: float = 10.0) -> None:
        self._timeout = timeout
        self.log: list[AccessRecord] = []

    def fetch(self, url: str) -> bytes:
        payload, _ = self.perform(url, "GET")
        return payload

    def post(self, url: str, body: bytes) -> bytes:
        payload, _ = self.perform(url, "POST", body)
        return payload

    def perform(
        self,
        url: str,
        method: str = "GET",
        body: bytes | None = None,
        deadline_ms: float | None = None,
        headers: dict[str, str] | None = None,
    ) -> tuple[bytes, AccessRecord]:
        """One measured request; ``deadline_ms`` maps to the socket timeout."""
        request = urllib.request.Request(url, data=body, method=method)
        from repro.transport.client import trace_headers

        for name, value in {**(trace_headers() or {}), **(headers or {})}.items():
            request.add_header(name, value)
        timeout = self._timeout
        if deadline_ms is not None:
            timeout = min(timeout, deadline_ms / 1000.0)
        started = time.perf_counter()
        try:
            with urllib.request.urlopen(request, timeout=timeout) as response:
                payload = response.read()
        except Exception as error:
            elapsed_ms = (time.perf_counter() - started) * 1000.0
            timed_out = isinstance(error, TimeoutError) or "timed out" in str(error)
            status = "timeout" if timed_out else "error"
            record = AccessRecord(url, method, elapsed_ms, 0.0, status)
            self.log.append(record)
            exc_type = TransportTimeout if timed_out else TransportError
            raise exc_type(f"{method} {url} failed: {error}", record) from error
        elapsed_ms = (time.perf_counter() - started) * 1000.0
        record = AccessRecord(url, method, elapsed_ms, 0.0)
        self.log.append(record)
        return payload, record

    def total_latency_ms(self) -> float:
        return sum(record.latency_ms for record in self.log)

    def request_count(self, host: str | None = None) -> int:
        if host is None:
            return len(self.log)
        return sum(1 for record in self.log if host in record.url)

    def reset_log(self) -> None:
        self.log.clear()
