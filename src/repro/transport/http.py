"""The socket wire: the same endpoints and the same client over real HTTP.

The simulated internet is ideal for experiments (seeded latency, cost
accounting, fault injection — what only a simulation can do); this
module is the deployment-shaped alternative, and it is only a wire.
:class:`StartsHttpServer` is a *mount* (see
:mod:`repro.transport.server`): a threading HTTP server around a
``(method, path) -> handler`` lookup that knows no endpoint, decodes no
request and opens no span — it serves whatever endpoint tables are
mounted on it, a resource's by default.
:class:`HttpTransport` is the client half: a
:class:`~repro.transport.network.Transport` whose waits are real and
whose log holds measured wall-clock latencies, so ``StartsClient`` and
``Metasearcher`` under either executor run over it unchanged.
"""

from __future__ import annotations

import asyncio
import functools
import http.client
import http.server
import threading
import time
import urllib.error
import urllib.request

from repro.resource.resource import Resource
from repro.starts.errors import StartsError
from repro.transport.network import (
    AccessRecord,
    Endpoints,
    TransportError,
    TransportTimeout,
    _AccessLog,
    _call_handler,
)
from repro.transport.server import (
    publish_metrics,
    resource_endpoints,
    source_endpoints,
)

__all__ = ["StartsHttpServer", "HttpTransport"]

#: The largest request body the server reads and response the client
#: does (the benchmark suite's largest are under 1 kB and ≈ 26 kB).
MAX_REQUEST_BYTES = 1 << 20
MAX_RESPONSE_BYTES = 16 << 20
#: How much of a 4xx/5xx response body rides on the raised error.
_ERROR_DETAIL_BYTES = 4096
#: Prometheus scrapers expect the exposition format's version here.
_CONTENT_TYPES = {"metrics": "text/plain; version=0.0.4; charset=utf-8"}


class StartsHttpServer:
    """A socket mount on localhost, publishing one resource on itself.

    The resource blob is served at ``/resource``, each source under
    ``/<source-id>/...`` (their metadata advertising those URLs), and
    ``GET /metrics`` the process metrics registry — ``registry``
    defaults to the process-wide one at request time.  With
    ``trace_sink`` (a :class:`~repro.observability.TraceCollector`),
    query POSTs carrying a ``traceparent`` header record a server-side
    span fragment there, stitched under the caller's trace.  Further
    tables go on with :meth:`mount`.
    """

    def __init__(
        self,
        resource: Resource,
        host: str = "127.0.0.1",
        port: int = 0,
        registry=None,
        trace_sink=None,
    ) -> None:
        self._server = http.server.ThreadingHTTPServer((host, port), _Handler)
        self._server.routes = self._routes = {}
        self._thread: threading.Thread | None = None
        base = self.base_url

        def source_base(source_id: str) -> str:
            return f"{base}/{source_id}"

        self.mount(base, resource_endpoints(resource, source_base))
        publish_metrics(self, base, registry)
        for source_id in resource.source_ids():
            endpoints = source_endpoints(
                resource.source(source_id), source_base(source_id), resource, trace_sink
            )
            self.mount(source_base(source_id), endpoints)

    @property
    def base_url(self) -> str:
        host, port = self._server.server_address[:2]
        return f"http://{host}:{port}"

    def resource_url(self) -> str:
        return f"{self.base_url}/resource"

    def source_query_url(self, source_id: str) -> str:
        return f"{self.base_url}/{source_id}/query"

    def mount(self, base_url: str, endpoints: Endpoints) -> None:
        """Serve an endpoint table under ``base_url``, a URL on this server."""
        if not f"{base_url}/".startswith(f"{self.base_url}/"):
            raise ValueError(f"{base_url} is not served by {self.base_url}")
        path = base_url[len(self.base_url) :]
        for (method, name), handler in endpoints.items():
            self._routes[method, f"{path}/{name}"] = handler

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


class _Handler(http.server.BaseHTTPRequestHandler):
    """One request: a lookup in the server's routes, the handler's
    bytes or its failure as a status."""

    def log_message(self, *args) -> None:  # quiet test output
        pass

    def _send(self, status: int, body: bytes) -> None:
        name = self.path.rsplit("/", 1)[-1]
        self.send_response(status)
        self.send_header(
            "Content-Type", _CONTENT_TYPES.get(name, "text/plain; charset=utf-8")
        )
        self.send_header("Content-Length", str(len(body)))
        self.end_headers()
        self.wfile.write(body)

    def _serve(self, method: str) -> None:
        handler = self.server.routes.get((method, self.path))
        if handler is None:
            return self._send(404, b"not found")
        arguments = ()
        if method == "POST":
            declared = self.headers.get("Content-Length", "0")
            if not declared.isdecimal():
                return self._send(400, f"bad Content-Length {declared!r}".encode())
            if int(declared) > MAX_REQUEST_BYTES:
                return self._send(413, b"request body too large")
            arguments = (self.rfile.read(int(declared)),)
        headers = {name.lower(): value for name, value in self.headers.items()}
        try:
            payload = _call_handler(handler, headers, *arguments)
        except StartsError as error:
            # The request's own fault: a body that does not decode, or
            # a query the protocol rejects.
            return self._send(400, str(error).encode("utf-8"))
        except Exception as error:
            return self._send(500, repr(error).encode("utf-8"))
        self._send(200, payload)

    do_GET = functools.partialmethod(_serve, "GET")
    do_POST = functools.partialmethod(_serve, "POST")


class HttpTransport(_AccessLog):
    """The :class:`~repro.transport.network.Transport` over real HTTP.

    Each request is logged with its measured wall-clock latency and a
    cost of zero.  ``timeout`` (seconds) caps every request; a tighter
    per-request ``deadline_ms`` maps to the socket timeout.
    """

    #: Waits over sockets are real: backoffs are slept, awaited attempts
    #: wall-guarded, and a millisecond is a millisecond.
    realtime = True
    time_scale = 1.0

    def __init__(self, timeout: float = 10.0) -> None:
        self._timeout = timeout
        self.log: list[AccessRecord] = []

    def perform(
        self,
        url: str,
        method: str = "GET",
        body: bytes | None = None,
        deadline_ms: float | None = None,
        headers: dict[str, str] | None = None,
    ) -> tuple[bytes, AccessRecord]:
        """One measured request; returns ``(payload, record)``.

        Whatever goes wrong — refused, reset, timed out, a 4xx/5xx
        status (whose body says why), an oversized response, a URL that
        is none — raises :class:`TransportError` carrying the record.
        """
        timeout = self._timeout
        if deadline_ms is not None:
            timeout = min(timeout, deadline_ms / 1000.0)
        started = time.perf_counter()
        try:
            request = urllib.request.Request(
                url, data=body, method=method, headers=headers or {}
            )
            payload = self._read(request, timeout)
        except (
            TransportError, OSError, http.client.HTTPException, ValueError
        ) as error:
            timed_out = isinstance(error, TimeoutError) or isinstance(
                getattr(error, "reason", None), TimeoutError
            )
            status = "timeout" if timed_out else "error"
            record = self._record(url, method, started, status)
            exc_type = TransportTimeout if timed_out else TransportError
            raise exc_type(f"{method} {url} failed: {error}", record) from error
        return payload, self._record(url, method, started)

    async def perform_async(self, *args, **kwargs) -> tuple[bytes, AccessRecord]:
        """:meth:`perform` on a worker thread, so one event loop overlaps
        the waits of many sockets."""
        return await asyncio.to_thread(self.perform, *args, **kwargs)

    @staticmethod
    def _read(request: urllib.request.Request, timeout: float) -> bytes:
        """The response body, within the size bound; an error status
        raises with the start of its body as the explanation."""
        try:
            with urllib.request.urlopen(request, timeout=timeout) as response:
                payload = response.read(MAX_RESPONSE_BYTES + 1)
        except urllib.error.HTTPError as error:
            with error:
                detail = error.read(_ERROR_DETAIL_BYTES).decode("utf-8", "replace")
            raise TransportError(f"{error}: {detail}") from error
        if len(payload) > MAX_RESPONSE_BYTES:
            raise TransportError(f"response exceeds {MAX_RESPONSE_BYTES} bytes")
        return payload

    def _record(
        self, url: str, method: str, started: float, status: str = "ok"
    ) -> AccessRecord:
        elapsed_ms = (time.perf_counter() - started) * 1000.0
        record = AccessRecord(url, method, elapsed_ms, 0.0, status)
        self.log.append(record)
        return record
