"""The per-source query runner: policies applied, outcomes recorded.

This is the fault-tolerant core the :class:`~repro.metasearch.client.
Metasearcher` delegates its query round to.  A :class:`QueryDispatcher`
takes translated per-source requests, drives them through an
:class:`~repro.federation.executor.Executor`, and applies its
:class:`~repro.federation.policy.QueryPolicy` to each: deadline per attempt,
retries with exponential backoff, optional hedged duplicates.  Every
request — successful, failed, hedged — is an attempt of the returned
:class:`~repro.federation.outcomes.SourceOutcome`, so a slow or dead
source costs bounded time and leaves a record instead of aborting the
search.
"""

from __future__ import annotations

import asyncio
import time
from collections.abc import Iterator, Sequence
from dataclasses import dataclass, field as dataclass_field

from repro.federation.executor import Executor, SerialExecutor
from repro.federation.outcomes import Attempt, OutcomeStatus, SourceOutcome
from repro.federation.policy import QueryPolicy
from repro.observability.tracing import Span, Tracer, trace_context
from repro.starts.errors import ProtocolError, SoifSyntaxError
from repro.starts.query import SQuery
from repro.starts.results import SQResults
from repro.transport.client import StartsClient
from repro.transport.network import AccessRecord, TransportError, TransportTimeout

__all__ = ["SourceRequest", "QueryDispatcher"]


@dataclass(frozen=True, slots=True)
class SourceRequest:
    """One translated query bound for one source (plus routed siblings)."""

    source_id: str
    query_url: str
    query: SQuery
    sibling_ids: tuple[str, ...] = dataclass_field(default_factory=tuple)


@dataclass(frozen=True, slots=True)
class _AttemptOutcome:
    """One logical attempt: the primary request plus any hedge."""

    status: OutcomeStatus
    results: SQResults | None
    effective_ms: float
    cost: float
    error: str | None


def _run_to_completion(coroutine):
    """Drive a coroutine whose awaits never suspend; return its value.

    The policy loop is a coroutine so that one definition serves the
    event loop and the blocking executors alike.  Under the blocking
    wire primitives every ``await`` completes on the spot, so a single
    ``send`` runs the loop from start to finish.
    """
    try:
        coroutine.send(None)
    except StopIteration as finished:
        return finished.value
    coroutine.close()
    raise RuntimeError("a blocking wire primitive suspended the policy loop")


class QueryDispatcher:
    """Runs per-source requests under an executor and one query policy.

    The policy loop (:meth:`_run_policy`) is written once, as a
    coroutine over two injected wire primitives — *send one request*
    and *wait out a backoff*.  Blocking executors step it to completion
    with primitives that block the calling thread (:meth:`run_one`); an
    ``is_async`` executor awaits it with primitives that yield the
    event loop.  Nothing else differs by executor kind.

    Args:
        client: the transport client queries go through.
        executor: serial or asyncio dispatch (default serial).
        policy: the :class:`QueryPolicy` every request runs under.
        tracer: receives one span per source (with per-attempt child
            events); a fresh tracer is created when none is given.
    """

    def __init__(
        self,
        client: StartsClient,
        executor: Executor | None = None,
        policy: QueryPolicy | None = None,
        tracer: Tracer | None = None,
    ) -> None:
        self.client = client
        self.executor = executor or SerialExecutor()
        self.policy = policy or QueryPolicy()
        self.tracer = tracer or Tracer()
        #: Each source's attempts, appended as they land: what a source
        #: cancelled mid-retry had already sent (and paid for).
        self.attempts: dict[str, list[Attempt]] = {}

    def _task_function(self, parent: Span | None):
        """The per-request task the executor drives.

        An async-capable executor (``is_async``) receives the policy
        coroutine itself, so waits suspend tasks instead of blocking
        threads; every other executor receives the plain callable it
        always has.
        """
        if getattr(self.executor, "is_async", False):

            async def task_function(request: SourceRequest) -> SourceOutcome:
                return await self._run_policy(
                    request, parent, self._send_awaited, asyncio.sleep
                )

        else:

            def task_function(request: SourceRequest) -> SourceOutcome:  # type: ignore[misc]
                return self.run_one(request, parent)

        return task_function

    def dispatch(
        self, requests: Sequence[SourceRequest], parent: Span | None = None
    ) -> list[SourceOutcome]:
        """Run every request; outcomes come back in request order."""
        return self.executor.run(list(requests), self._task_function(parent))

    def dispatch_stream(
        self, requests: Sequence[SourceRequest], parent: Span | None = None
    ) -> Iterator[SourceOutcome]:
        """Yield outcomes *as sources complete*, not in request order.

        Every executor streams natively (serial: lazily task by task;
        async: event-loop completion order).  Closing the iterator
        early abandons whatever is still in flight — the hook streaming
        searches use for deadline expiry and stable-top-k termination.
        """
        stream = self.executor.run_stream(list(requests), self._task_function(parent))
        for _, outcome in stream:
            yield outcome

    def run_one(
        self, request: SourceRequest, parent: Span | None = None
    ) -> SourceOutcome:
        """Execute one source's request under its policy, on this thread."""
        return _run_to_completion(
            self._run_policy(request, parent, self._send_blocking, self._wait_blocking)
        )

    # -- the two wire primitives, per executor kind ------------------------

    async def _send_blocking(
        self, request: SourceRequest, policy: QueryPolicy
    ) -> tuple[SQResults, AccessRecord]:
        return self.client.query_with_record(
            request.query_url, request.query, deadline_ms=policy.timeout_ms
        )

    @staticmethod
    async def _wait_blocking(seconds: float) -> None:
        time.sleep(seconds)

    async def _send_awaited(
        self, request: SourceRequest, policy: QueryPolicy
    ) -> tuple[SQResults, AccessRecord]:
        """The awaitable request path, wall-guarded in realtime mode.

        The outcome-deciding deadline is ``timeout_ms``, enforced by the
        transport (deterministically in simulation, as the socket
        timeout over HTTP); on a ``realtime``
        :class:`~repro.transport.network.Transport` an
        ``asyncio.timeout()`` wall-clock guard additionally backstops
        a genuinely hung backend, with enough slack that scheduler
        jitter can never flip an outcome.  The guard is a context
        manager, not a child task: the request resumes in the task that
        sent it, so its answer is in hand within one event-loop step.
        """
        internet = self.client.internet
        budget_s = policy.attempt_wall_budget_s(internet.time_scale)
        async with asyncio.timeout(budget_s if internet.realtime else None):
            return await self.client.query_with_record_async(
                request.query_url, request.query, deadline_ms=policy.timeout_ms
            )

    # -- the policy loop ---------------------------------------------------

    async def _run_policy(
        self, request: SourceRequest, parent: Span | None, send, wait
    ) -> SourceOutcome:
        """Backoff → attempt → retry or stop, traced and recorded.

        Spans are opened and closed explicitly under ``parent`` (never
        via the tracer's thread-local stack): sibling source tasks
        interleave on one event-loop thread, and worker threads do not
        share the caller's stack.  Every decision — when to back off,
        retry, hedge, give up — is made from the deterministic
        *simulated* latencies, so every executor produces bit-identical
        outcomes; ``send`` and ``wait`` only decide how time is spent.
        """
        source_id = request.source_id
        policy = self.policy
        internet = self.client.internet
        span = self.tracer.open_span(
            f"query:{source_id}", parent=parent, url=request.query_url
        )
        try:
            # Activate this span's trace context so the transport layer
            # injects a traceparent header on every wire request below.
            with trace_context(self.tracer.context_for(span)):
                attempts = self.attempts[source_id] = []
                elapsed_ms = 0.0
                cost = 0.0
                number = 0
                while True:
                    number += 1
                    backoff = policy.backoff_before(number)
                    if backoff:
                        elapsed_ms += backoff
                        self.tracer.event(
                            "backoff",
                            parent=span,
                            wait_ms=backoff,
                            before_attempt=number,
                        )
                        if internet.realtime:
                            await wait(backoff * internet.time_scale / 1000.0)
                    attempt = await self._attempt(
                        request, policy, number, backoff, span, send
                    )
                    elapsed_ms += attempt.effective_ms
                    cost += attempt.cost
                    if attempt.status is OutcomeStatus.OK or not policy.should_retry(
                        attempt.status.value, number
                    ):
                        break
            outcome = SourceOutcome(
                source_id,
                attempt.status,
                results=attempt.results,
                attempts=tuple(attempts),
                elapsed_ms=elapsed_ms,
                cost=cost,
                error=attempt.error,
                sibling_ids=request.sibling_ids,
            )
            span.annotate(
                status=outcome.status.value,
                requests=outcome.requests,
                retries=outcome.retries,
                wire_ms=outcome.elapsed_ms,
                cost=outcome.cost,
            )
            if outcome.error:
                span.annotate(error=outcome.error)
        finally:
            self.tracer.close_span(span)
        return outcome

    async def _attempt(
        self,
        request: SourceRequest,
        policy: QueryPolicy,
        number: int,
        backoff_ms: float,
        span: Span,
        send,
    ) -> _AttemptOutcome:
        """One logical attempt: the primary request plus any hedge.

        The hedge decision is made from the primary's *simulated*
        latency, never from wall-clock races — outcomes stay
        deterministic under any scheduler.
        """
        primary, results = await self._request(
            request, policy, send, span, number, backoff_ms
        )
        hedge_at = policy.hedge_after_ms
        if hedge_at is None or primary.latency_ms <= hedge_at:
            return _AttemptOutcome(
                primary.status,
                results,
                primary.latency_ms,
                primary.cost,
                primary.error,
            )

        # The primary was still unanswered at the hedge deadline, so a
        # duplicate went out; it completes hedge_at later than a fresh
        # request would.  The faster success wins, both are paid for.
        hedge, hedge_results = await self._request(
            request, policy, send, span, number, hedged=True
        )
        hedge_completion = hedge_at + hedge.latency_ms
        total_cost = primary.cost + hedge.cost
        winners: list[tuple[float, SQResults | None]] = []
        if primary.status is OutcomeStatus.OK:
            winners.append((primary.latency_ms, results))
        if hedge.status is OutcomeStatus.OK:
            winners.append((hedge_completion, hedge_results))
        if winners:
            effective, winning_results = min(winners, key=lambda entry: entry[0])
            return _AttemptOutcome(
                OutcomeStatus.OK,
                winning_results,
                effective,
                total_cost,
                None,
            )
        # Both failed: the client knows only when the slower one gives up.
        return _AttemptOutcome(
            primary.status,
            None,
            max(primary.latency_ms, hedge_completion),
            total_cost,
            primary.error or hedge.error,
        )

    async def _request(
        self,
        request: SourceRequest,
        policy: QueryPolicy,
        send,
        span: Span,
        number: int,
        backoff_ms: float = 0.0,
        hedged: bool = False,
    ) -> tuple[Attempt, SQResults | None]:
        """One wire request: its :class:`Attempt` record (kept in
        :attr:`attempts` as it lands), its trace event, and the results if
        it was answered."""
        results = record = error = None
        try:
            results, record = await send(request, policy)
            status = OutcomeStatus.OK
        except (TransportError, ProtocolError, SoifSyntaxError) as exc:
            # A failed request is still paid for: latency and cost were
            # spent whether or not an answer arrived — or decoded.
            record = getattr(exc, "record", None)
            timed_out = isinstance(exc, TransportTimeout)
            status = OutcomeStatus.TIMEOUT if timed_out else OutcomeStatus.ERROR
            error = str(exc)
        except TimeoutError:
            # Only the awaited send's wall-clock guard raises this.
            status = OutcomeStatus.TIMEOUT
            error = "wall-clock attempt budget exceeded"
        if record is not None:
            latency, cost = record.latency_ms, record.cost
        else:
            cost = 0.0
            timeout_ms = policy.timeout_ms or 0.0
            latency = timeout_ms if status is OutcomeStatus.TIMEOUT else 0.0
        self.tracer.event(
            f"attempt:{number}:hedge" if hedged else f"attempt:{number}",
            parent=span,
            status=status.value,
            latency_ms=latency,
            cost=cost,
        )
        attempt = Attempt(number, status, latency, cost, backoff_ms, hedged, error)
        self.attempts[request.source_id].append(attempt)
        return attempt, results
