"""Client-side transport: typed fetchers over any :class:`Transport`.

The metasearcher never touches sources directly — it speaks SOIF over
the network, exactly as a real STARTS client would.  Each method posts
or fetches a blob and decodes it into the corresponding protocol
object.  An optional :class:`~repro.observability.Tracer` records one
event per discovery fetch; query traffic is traced by the federation
runner, which sees retries and hedges the client alone cannot.

Every outbound request of the package leaves through :func:`send`, the
one place the ambient trace context becomes a ``traceparent`` header.
"""

from __future__ import annotations

from repro.observability.tracing import current_trace_context
from repro.source.sample import SampleResults
from repro.source.scan import ScanRequest, ScanResponse
from repro.starts.errors import SoifSyntaxError
from repro.starts.metadata import SContentSummary, SMetaAttributes, SResource
from repro.starts.query import SQuery
from repro.starts.results import SQResults
from repro.starts.soif import parse_soif
from repro.transport.network import AccessRecord, Transport

__all__ = ["StartsClient", "send", "trace_headers"]


def trace_headers() -> dict[str, str] | None:
    """The outbound headers the ambient trace context implies.

    ``None`` when no context is active, so untraced traffic crosses the
    wire exactly as before.
    """
    context = current_trace_context()
    if context is None:
        return None
    return {"traceparent": context.to_traceparent()}


def send(
    perform,
    url: str,
    method: str = "GET",
    body: bytes | None = None,
    deadline_ms: float | None = None,
):
    """One outbound request through a transport's ``perform`` (or, to be
    awaited, its ``perform_async``); whatever that returns."""
    return perform(url, method, body, deadline_ms=deadline_ms, headers=trace_headers())


def _decode_results(
    response: bytes, record: AccessRecord, query: SQuery
) -> tuple[SQResults, AccessRecord]:
    """Decode the response to ``query`` that ``record`` accounts for.

    A response that does not decode was still paid for, so the error
    carries ``record`` the way a :class:`TransportError` does.
    """
    try:
        return SQResults.from_soif_stream(response, query), record
    except SoifSyntaxError as error:
        error.record = record
        raise


class StartsClient:
    """A thin, typed STARTS client bound to one network."""

    def __init__(self, internet: Transport, tracer=None) -> None:
        #: The network this client is bound to.
        self.internet = internet
        self.tracer = tracer

    def query(self, query_url: str, query: SQuery) -> SQResults:
        """POST an @SQuery; decode the @SQResults stream."""
        results, _ = self.query_with_record(query_url, query)
        return results

    def query_with_record(
        self, query_url: str, query: SQuery, deadline_ms: float | None = None
    ) -> tuple[SQResults, AccessRecord]:
        """POST an @SQuery; return the results *and* the access record.

        ``deadline_ms`` bounds how long the client waits: a slower (or
        hanging) source raises
        :class:`~repro.transport.TransportTimeout` whose ``record``
        charges exactly the deadline.  The federation runner uses this
        to implement per-source query deadlines.
        """
        body = query.to_soif().dump().encode("utf-8")
        response, record = send(
            self.internet.perform, query_url, "POST", body, deadline_ms
        )
        return _decode_results(response, record, query)

    async def query_with_record_async(
        self, query_url: str, query: SQuery, deadline_ms: float | None = None
    ) -> tuple[SQResults, AccessRecord]:
        """:meth:`query_with_record` over the network's awaitable path.

        Accounting is identical to the synchronous method; in realtime
        mode the simulated latency is awaited (``asyncio.sleep``) rather
        than slept, so one event loop can hold thousands of source
        queries in flight.
        """
        body = query.to_soif().dump().encode("utf-8")
        response, record = await send(
            self.internet.perform_async, query_url, "POST", body, deadline_ms
        )
        return _decode_results(response, record, query)

    def fetch_resource(self, resource_url: str) -> SResource:
        """GET an @SResource blob."""
        return SResource.from_soif(parse_soif(self._fetch(resource_url, "resource")))

    def fetch_metadata(self, metadata_url: str) -> SMetaAttributes:
        """GET an @SMetaAttributes blob."""
        return SMetaAttributes.from_soif(parse_soif(self._fetch(metadata_url, "meta")))

    def fetch_summary(self, summary_url: str) -> SContentSummary:
        """GET an @SContentSummary blob."""
        return SContentSummary.from_soif(
            parse_soif(self._fetch(summary_url, "summary"))
        )

    def fetch_sample_results(self, sample_url: str) -> SampleResults:
        """GET an @SSampleResults blob."""
        return SampleResults.from_soif(parse_soif(self._fetch(sample_url, "sample")))

    def fetch_metrics(self, metrics_url: str) -> str:
        """GET a ``/metrics`` endpoint; returns the Prometheus text."""
        return self._fetch(metrics_url, "metrics").decode("utf-8")

    def _fetch(self, url: str, kind: str) -> bytes:
        payload, record = send(self.internet.perform, url)
        if self.tracer is not None:
            self.tracer.event(
                f"fetch:{kind}",
                url=url,
                latency_ms=record.latency_ms,
                cost=record.cost,
            )
        return payload

    def scan(
        self, scan_url: str, field: str, start_term: str, count: int = 10
    ):
        """POST an @SScanRequest; decode the vocabulary slice."""
        body = ScanRequest(field, start_term, count).to_soif().dump().encode("utf-8")
        payload, _ = send(self.internet.perform, scan_url, "POST", body)
        return ScanResponse.parse(payload)
