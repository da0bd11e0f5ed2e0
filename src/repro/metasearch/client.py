"""The metasearcher facade: select → translate → query → merge.

This is the end-to-end client the paper's Introduction promises: "users
have the illusion of a single combined document source."  One call to
:meth:`Metasearcher.search` performs all three §1 tasks over the
transport layer, using only what sources export through STARTS.

The query round itself is delegated to the federation runtime
(:mod:`repro.federation`): an executor fans the translated per-source
requests out (serially or on an event loop), per-source policies
bound how long a slow source is waited for and how often a flaky one is
retried, and a source that fails or times out becomes a recorded
:class:`~repro.federation.SourceOutcome` instead of an exception —
merging proceeds over the survivors.  Every phase is traced;
:meth:`MetasearchResult.explain` renders the whole round.
"""

from __future__ import annotations

import json
from collections.abc import Iterable, Iterator
from contextlib import contextmanager
from dataclasses import dataclass, field as dataclass_field, replace

from repro.cache.core import FRESH
from repro.cache.keys import query_cache_key
from repro.cache.negative import NegativeSourceCache
from repro.cache.policy import CachePolicy
from repro.cache.results import QueryResultCache
from repro.federation.executor import Executor, SerialExecutor
from repro.federation.outcomes import OutcomeStatus, SourceOutcome
from repro.federation.policy import QueryPolicy
from repro.federation.runner import QueryDispatcher, SourceRequest
from repro.metasearch.discovery import Catalog, DiscoveryService, KnownSource
from repro.metasearch.merging import (
    MergeContext,
    MergedDocument,
    MergeStrategy,
    StreamingMerge,
    TfIdfRecomputeMerge,
)
from repro.metasearch.selection import SourceSelector, VGlossMax
from repro.metasearch.translation import ClientTranslator, TranslationReport
from repro.observability.querylog import QueryLogRecord, get_query_log
from repro.observability.render import render_trace
from repro.observability.tracing import Span, Trace, Tracer
from repro.starts.errors import ProtocolError
from repro.starts.metadata import SContentSummary
from repro.starts.query import SQuery
from repro.starts.results import SQResults
from repro.transport.client import StartsClient
from repro.transport.network import Transport

__all__ = ["MetasearchResult", "Metasearcher", "StreamEmission"]


#: Pipeline phase names folded into the wide event's ``phase_ms``.
_LOGGED_PHASES = ("discover", "select", "translate", "query", "merge")


@dataclass
class _Round:
    """One search, start to finish: the record every stage reads and writes.

    The scope opens it (query, terms, the discovery catalog, merger,
    executor, grouping, tracer, ``search`` span, start time); ``select``
    adds the selected ids, their summaries and the result-cache key;
    ``translate`` and the drivers fill ``outcomes`` and ``reports`` as
    they land, so an ``error`` or ``abandoned`` exit logs what actually
    landed; ``finish`` sets ``result``.  ``outcome`` is how the search
    ended (``wire`` / ``stream`` / ``hit``; the scope itself adds
    ``error`` / ``abandoned``), and :meth:`account` reads all of it
    exactly once, however the search ends.

    ``catalog`` is read from discovery once, when the round opens; every
    stage looks sources up in it and never in discovery, so a refresh or
    ``forget`` running alongside changes only the rounds that open
    after it publishes.
    """

    query: SQuery
    terms: list[str]
    catalog: Catalog
    merger: MergeStrategy
    executor: Executor
    group_by_resource: bool
    tracer: Tracer
    span: Span
    started_ms: float
    selected_ids: list[str] = dataclass_field(default_factory=list)
    #: The *selected* sources' content summaries only — everything
    #: downstream (translation, the merge context) needs no more.
    summaries: dict[str, SContentSummary] = dataclass_field(default_factory=dict)
    #: The result-cache key; ``None`` when result caching is off.
    key: str | None = None
    outcomes: dict[str, SourceOutcome] = dataclass_field(default_factory=dict)
    reports: dict[str, TranslationReport] = dataclass_field(default_factory=dict)
    negative_skips: int = 0
    #: The ``cache`` miss event; it gets ``evictions`` when the round is stored.
    cache_event: Span | None = None
    outcome: str | None = None
    result: "MetasearchResult | None" = None
    error: str = ""
    terminated_early: bool = False

    def account(self) -> None:
        """Attach the trace and emit the one wide event the search owes.

        The process query log gets the flat record — query shape, its
        wall-clock time, per-phase times folded from the phase spans,
        wire tallies summed over the attempts of the outcomes this round
        recorded (none on a cache serve: its result carries the filling
        round's), cache tallies from how it ended.
        """
        tracer, result = self.tracer, self.result
        if result is not None:
            result.trace = tracer.trace()
        elapsed_ms = tracer.now_ms() - self.started_ms
        log = get_query_log()
        if not log.enabled:
            return
        # Each phase span once: the spans directly under ``search`` (not
        # the ``query:<id>`` spans inside ``query``), plus the ``discover``
        # of a tracer the harvest shared.
        phase_ms: dict[str, float] = {}
        discovers = [span for span in tracer.spans if span.name == "discover"]
        for span in discovers + self.span.children:
            phase = span.name.split(":", 1)[0]
            if phase in _LOGGED_PHASES:
                phase_ms[phase] = phase_ms.get(phase, 0.0) + span.duration_ms
        wire = self.outcomes.values()
        attempts = [attempt for outcome in wire for attempt in outcome.attempts]
        # A failed search has no result: it logs an empty answer.
        answer = result if result is not None else MetasearchResult([], [])
        log.record(
            QueryLogRecord(
                terms=" ".join(self.terms),
                outcome=self.outcome,
                total_ms=elapsed_ms,
                trace_id=tracer.trace_id,
                selected_sources=tuple(self.selected_ids),
                phase_ms=phase_ms,
                n_results=len(answer.documents),
                sources_ok=len(answer.ok_sources()),
                sources_failed=len(answer.failed_sources()),
                sources_skipped=len(answer.skipped_sources()),
                requests=len(attempts),
                retries=sum(outcome.retries for outcome in wire),
                hedges=sum(attempt.hedged for attempt in attempts),
                timeouts=sum(a.status is OutcomeStatus.TIMEOUT for a in attempts),
                failures=sum(a.status is OutcomeStatus.ERROR for a in attempts),
                cache_hits=int(self.outcome == "hit"),
                negative_skips=self.negative_skips,
                cost=float(sum(outcome.cost for outcome in wire)),
                terminated_early=self.terminated_early,
                error=self.error,
            )
        )


def _answered(outcomes: dict[str, SourceOutcome]) -> dict[str, SQResults]:
    """The results of the sources that answered, in outcome order."""
    return {
        source_id: outcome.results
        for source_id, outcome in outcomes.items()
        if outcome.ok and outcome.results is not None
    }


@dataclass
class MetasearchResult:
    """Everything one metasearch produced, for inspection and display.

    Latency attributes model the two deployment styles over the
    *simulated* wire time each routed group occupied (attempts, backoff
    waits and hedges included): a serial client pays the *sum* across
    groups, a parallel fan-out client pays the *maximum* — requests
    within one group are sequential on the wire either way.
    """

    documents: list[MergedDocument]
    selected_sources: list[str]
    per_source_results: dict[str, SQResults] = dataclass_field(default_factory=dict)
    translation_reports: dict[str, TranslationReport] = dataclass_field(
        default_factory=dict
    )
    query_latency_serial_ms: float = 0.0
    query_latency_parallel_ms: float = 0.0
    outcomes: dict[str, SourceOutcome] = dataclass_field(default_factory=dict)
    trace: Trace | None = None
    #: ``None`` when the answer came off the wire (or caching is off);
    #: ``"hit"`` when it was served from the result cache.
    cache_status: str | None = None

    def linkages(self) -> list[str]:
        return [document.linkage for document in self.documents]

    def top(self, k: int) -> list[MergedDocument]:
        return self.documents[:k]

    # -- outcome views -----------------------------------------------------

    def ok_sources(self) -> list[str]:
        return [sid for sid, outcome in self.outcomes.items() if outcome.ok]

    def failed_sources(self) -> list[str]:
        return [
            sid
            for sid, outcome in self.outcomes.items()
            if outcome.status in (OutcomeStatus.ERROR, OutcomeStatus.TIMEOUT)
        ]

    def skipped_sources(self) -> list[str]:
        return [
            sid
            for sid, outcome in self.outcomes.items()
            if outcome.status is OutcomeStatus.SKIPPED
        ]

    def outcome_counts(self) -> dict[str, int]:
        """``{status value: count}`` over every entry source's outcome."""
        counts: dict[str, int] = {}
        for outcome in self.outcomes.values():
            counts[outcome.status.value] = counts.get(outcome.status.value, 0) + 1
        return counts

    def explain(self, fragments: Iterable[Trace] = ()) -> str:
        """What this search did, from what the round recorded.

        Result-cache status; per entry source its outcome (attempts,
        retries, hedges, wire time, cost — or why it was skipped or
        cancelled), what translation dropped, and the *actual*
        expressions the source reported evaluating (§4.2); the span
        tree with a self-time column — each cache decision one ``cache``
        event in it — and each of ``fragments`` (the server-side traces
        a :class:`~repro.observability.TraceCollector` gathered) under
        the client span that issued its request; and the search's
        query-log record.
        Nothing is recomputed.  A cache-served result shows the outcomes
        of the round that filled the cache beside its own short trace.
        """
        lines = []
        if self.cache_status is not None:
            lines.append(
                f"result cache: {self.cache_status} (the outcomes below are "
                "those of the round that filled it)"
            )
        for source_id, outcome in self.outcomes.items():
            lines.append(outcome.describe())
            if outcome.sibling_ids:
                lines.append(f"  also answers for: {' '.join(outcome.sibling_ids)}")
            report = self.translation_reports.get(source_id)
            if report is not None:
                notes = report.dropped or ["lossless"]
                lines.extend(f"  translation: {note}" for note in notes)
            answer = self.per_source_results.get(source_id)
            if answer is not None:
                for label, expression in (
                    ("filter", answer.actual_filter_expression),
                    ("ranking", answer.actual_ranking_expression),
                ):
                    text = expression.serialize() if expression else "(none)"
                    lines.append(f"  actual {label}: {text}")
        if lines:
            lines.append("")
        if self.trace is None:
            lines.append("(no trace recorded)")
            return "\n".join(lines)
        lines.append(render_trace(self.trace, fragments))
        for record in get_query_log().records(trace_id=self.trace.trace_id):
            lines += ["", "query log: " + json.dumps(record.to_json(), sort_keys=True)]
        return "\n".join(lines)


@dataclass
class StreamEmission:
    """One incremental answer from :meth:`Metasearcher.search_stream`.

    An emission is produced every time a source's outcome lands (and
    once, final, when the stream finishes): the merged rank so far, how
    much of the round has completed, and — on the last emission only —
    the assembled :class:`MetasearchResult`.
    """

    #: 0-based position of this emission in the stream.
    sequence: int
    #: The outcome that triggered this emission; ``None`` on the final
    #: wrap-up emission and on cache-served single-emission streams.
    outcome: SourceOutcome | None
    #: Merged rank over every source that has answered so far, already
    #: truncated to the query's ``MaxNumberDocuments``.
    documents: list[MergedDocument]
    #: Entry sources completed / still in flight after this emission.
    completed: int
    pending: int
    #: Wall-clock milliseconds since the stream started.
    elapsed_ms: float
    #: True once the stream decided to stop before every source
    #: answered (provably stable top-k, or the deadline expired).
    terminated_early: bool = False
    #: The final result; set only on the last emission.
    result: MetasearchResult | None = None

    @property
    def is_final(self) -> bool:
        return self.result is not None


class Metasearcher:
    """A configurable metasearcher over any :class:`Transport`.

    Args:
        internet: the network where sources are published — the
            simulated internet or real sockets (``HttpTransport``).
        resource_urls: @SResource URLs to harvest on :meth:`refresh`.
        selector: source-selection strategy (default vGlOSS-Max).
        merger: rank-merging strategy (default tf·idf recompute).
        executor: how the query round is driven — the default
            :class:`~repro.federation.SerialExecutor` is deterministic;
            pass :class:`~repro.federation.AsyncExecutor` to overlap the
            waits on sources that really take time to answer.
        query_policy: default per-source execution policy (deadline,
            retries, backoff, hedging).
        cache_policy: caching on (the default: a
            :class:`~repro.cache.QueryResultCache` in
            :attr:`result_cache`, a
            :class:`~repro.cache.NegativeSourceCache` in
            :attr:`negative_cache` — assign your own to tune either) or
            ``CachePolicy.disabled()`` for the paper-faithful pipeline
            with every search on the wire.
    """

    def __init__(
        self,
        internet: Transport,
        resource_urls: list[str] | None = None,
        selector: SourceSelector | None = None,
        merger: MergeStrategy | None = None,
        executor: Executor | None = None,
        query_policy: QueryPolicy | None = None,
        cache_policy: CachePolicy | None = None,
    ) -> None:
        self.client = StartsClient(internet)
        self.cache_policy = cache_policy or CachePolicy()
        self.discovery = DiscoveryService(self.client)
        self.selector = selector or VGlossMax()
        self.merger = merger or TfIdfRecomputeMerge()
        self.translator = ClientTranslator()
        self.executor: Executor = executor or SerialExecutor()
        self.query_policy = query_policy or QueryPolicy()
        self.resource_urls = list(resource_urls or [])
        self.result_cache: QueryResultCache | None = None
        self.negative_cache: NegativeSourceCache | None = None
        if self.cache_policy.enabled:
            self.result_cache = QueryResultCache()
            self.negative_cache = NegativeSourceCache()

    # -- discovery ---------------------------------------------------------

    def refresh(self, tracer: Tracer | None = None) -> list[KnownSource]:
        """Harvest every configured resource; returns all known sources."""
        tracer = tracer or Tracer()
        # The harvest's fetch events go to this call's tracer through a
        # private client, never through state left on the shared one.
        harvester = StartsClient(self.client.internet, tracer=tracer)
        with tracer.span("discover", resources=len(self.resource_urls)):
            for url in self.resource_urls:
                self.discovery.refresh_resource(url, client=harvester)
        return self.discovery.known_sources()

    # -- the three metasearch tasks -------------------------------------------

    def search(
        self,
        query: SQuery,
        k_sources: int = 3,
        selector: SourceSelector | None = None,
        merger: MergeStrategy | None = None,
        group_by_resource: bool = False,
        executor: Executor | None = None,
        tracer: Tracer | None = None,
    ) -> MetasearchResult:
        """Run the full pipeline for one query.

        Args:
            group_by_resource: when True, selected sources that share a
                resource receive *one* query, posted to the first source
                with the siblings in the ``Sources`` attribute (Figure 1
                routing) — the resource then eliminates duplicates
                server-side.  Appropriate when a resource's sources
                share an engine, so their raw scores are comparable.
            executor: overrides the searcher's executor for this call.
            tracer: receives the phase spans and events; a fresh tracer
                backs each search when none is given, and its trace is
                attached to the result either way.

        Raises:
            ProtocolError: if the query has neither expression, or no
                sources have been discovered yet.
            ValueError: if ``k_sources`` is negative.
        """
        with self._search_scope(
            query, k_sources, tracer or Tracer(), merger, executor, group_by_resource
        ) as search:
            self._select(search, k_sources, selector)
            if not self._serve_from_cache(search):
                self._batch_round(search)
                search.outcome = "wire"
        return search.result

    def search_stream(
        self,
        query: SQuery,
        k_sources: int = 3,
        selector: SourceSelector | None = None,
        merger: MergeStrategy | None = None,
        group_by_resource: bool = False,
        executor: Executor | None = None,
        tracer: Tracer | None = None,
        deadline_ms: float | None = None,
        early_stop: bool = True,
    ) -> Iterator[StreamEmission]:
        """The incremental :meth:`search`: emissions as sources answer.

        The same stages — select, serve from cache, translate, finish
        the round — but the query round streams: every completed
        source outcome yields a :class:`StreamEmission` carrying the
        merged rank so far, and the final emission carries the assembled
        :class:`MetasearchResult`.  The final rank is bit-identical to
        what batch :meth:`search` would return for the same world.

        The stream can end before every source answers:

        * ``early_stop`` (default on) terminates once the current top
          ``MaxNumberDocuments`` provably cannot change — the merge
          strategy's scores are arrival-order-stable and the k-th score
          strictly exceeds every pending source's score upper bound.
          Because the *kept* documents are exactly that stable top-k,
          the bit-identical guarantee survives early termination.
        * ``deadline_ms`` bounds the stream's wall-clock time.

        Sources still in flight at termination are cancelled (the
        executor abandons their tasks) and recorded as ``CANCELLED``
        outcomes — visible in the result, neutral to the negative cache,
        each with the requests it had already made.
        An early-terminated result is never stored in the result cache;
        a cache hit comes back as a single final emission, exactly as
        :meth:`search` serves it.
        A consumer that closes the stream before its final emission
        cancels what is in flight the same way; that search is logged
        as ``abandoned``, with whatever had answered by then.
        """
        with self._search_scope(
            query, k_sources, tracer or Tracer(), merger, executor, group_by_resource
        ) as search:
            self._select(search, k_sources, selector)
            if self._serve_from_cache(search):
                final = StreamEmission(
                    sequence=0,
                    outcome=None,
                    documents=list(search.result.documents),
                    completed=0,
                    pending=0,
                    elapsed_ms=search.tracer.now_ms() - search.started_ms,
                    result=search.result,
                )
            else:
                final = yield from self._stream_round(search, deadline_ms, early_stop)
                search.outcome = "stream"
                search.terminated_early = final.terminated_early
        # Logged before the final emission goes out: a
        # consumer that stops there leaves nothing undone.
        yield final

    # -- the stages, each written once -------------------------------------

    @contextmanager
    def _search_scope(
        self,
        query: SQuery,
        k_sources: int,
        tracer: Tracer,
        merger: MergeStrategy | None,
        executor: Executor | None,
        group_by_resource: bool,
    ) -> Iterator[_Round]:
        """Validate, open the round and its ``search`` span, and account
        for the exit.

        Whatever happens inside — an answer off the wire, a cache serve,
        an exception, a stream whose consumer closes it before the final
        emission (``abandoned``: its wire requests were still paid for)
        — the search is logged exactly once, here.  The span
        is opened explicitly so the scope may straddle a generator's
        ``yield``.
        """
        query.validate()
        if k_sources < 0:
            raise ValueError(f"k_sources must be >= 0, got {k_sources}")
        catalog = self.discovery.catalog
        if not catalog.sources:
            raise ProtocolError("no sources discovered; call refresh() first")
        terms = self._selection_terms(query)
        search = _Round(
            query,
            terms,
            catalog,
            merger or self.merger,
            executor or self.executor,
            group_by_resource,
            tracer,
            tracer.open_span("search", terms=" ".join(terms)),
            tracer.now_ms(),
        )
        try:
            yield search
        except GeneratorExit:
            search.outcome, search.terminated_early = "abandoned", True
            raise
        except Exception as error:
            search.outcome, search.error = "error", repr(error)
            raise
        finally:
            tracer.close_span(search.span)
            if search.outcome is not None:
                search.account()

    def _select(
        self, search: _Round, k_sources: int, selector: SourceSelector | None
    ) -> None:
        """Select the sources, keep their summaries, derive the cache key."""
        selector = selector or self.selector
        tracer, catalog = search.tracer, search.catalog
        with tracer.span(
            "select", parent=search.span, selector=selector.name, k=k_sources
        ) as span:
            indexed = catalog.index.source_count
            if indexed:
                selected_ids = selector.select(search.terms, catalog.index, k_sources)
            else:
                # No source exported a summary: nothing to score, so the
                # first k by id stand in.
                known = catalog.known_sources()
                selected_ids = [source.source_id for source in known[:k_sources]]
            span.annotate(summaries=indexed, selected=" ".join(selected_ids))
        search.selected_ids = selected_ids
        selected = [catalog.sources[source_id] for source_id in selected_ids]
        search.summaries = {
            known.source_id: known.summary
            for known in selected
            if known.summary is not None
        }
        if self.result_cache is not None:
            # The canonical query plus everything else that changes the
            # merged answer for a fixed source set.  Each source is bound
            # at its harvest generation: once it is re-harvested or
            # forgotten, no catalog yields this key again.
            search.key = "|".join(
                (
                    query_cache_key(
                        search.query,
                        [f"{known.source_id}@{known.generation}" for known in selected],
                    ),
                    f"grp={'T' if search.group_by_resource else 'F'}",
                    f"merge={type(search.merger).__name__}",
                )
            )

    def _serve_from_cache(self, search: _Round) -> bool:
        """Answer from the result cache if it holds the round's key fresh.

        A fresh entry is served as a ``hit``: its ``cache`` event carries
        the wire cost the filling round paid, now saved, and the caller
        gets a copy — the latency fields keep the *original* wire cost on
        purpose (they model what the answer cost to compute); the trace
        and ``cache_status`` show it was not paid again.  Returns False
        on a miss, an expired entry included (or with caching off).
        """
        if search.key is None:
            return False
        tracer, parent = search.tracer, search.span
        cached, state = self.result_cache.lookup(search.key)
        if state != FRESH:
            search.cache_event = tracer.event("cache", parent=parent, status="miss")
            return False
        saved = sum(outcome.cost for outcome in cached.outcomes.values())
        tracer.event("cache", parent=parent, status="hit", saved_cost=saved)
        search.outcome = "hit"
        search.result = self._copy_result(cached, cache_status="hit")
        return True

    def _translate(self, search: _Round) -> list[SourceRequest]:
        """Translate per routed group and drop negative-cached groups.

        Returns the requests left for the wire; ``search.outcomes``
        already holds a ``SKIPPED`` entry for every group that will not
        reach it, with the reason on record.
        """
        tracer = search.tracer
        translated_requests: list[SourceRequest] = []
        for entry_id, sibling_ids in self._route(search):
            with tracer.span(f"translate:{entry_id}", parent=search.span) as span:
                source = search.catalog.sources[entry_id]
                translated, report = self.translator.translate(
                    search.query,
                    source.metadata,
                    summary=search.summaries.get(entry_id),
                    target=source.translation_target,
                )
                search.reports[entry_id] = report
                span.annotate(
                    lossless=report.is_lossless(), dropped=len(report.dropped)
                )
                if (
                    translated.filter_expression is None
                    and translated.ranking_expression is None
                ):
                    # Nothing would survive: skip the round trip, on record.
                    search.outcomes[entry_id] = SourceOutcome.skip(
                        entry_id,
                        "translation left neither filter nor ranking expression",
                        tuple(sibling_ids),
                    )
                    span.annotate(skipped=True)
                else:
                    if sibling_ids:
                        translated = translated.with_sources(*sibling_ids)
                    translated_requests.append(
                        SourceRequest(
                            entry_id, source.query_url, translated, tuple(sibling_ids)
                        )
                    )

        # A negative-cached entry source never reaches the wire; the skip
        # is an outcome, a ``cache`` event and a line in explain().
        requests: list[SourceRequest] = []
        for request in translated_requests:
            reason = (
                self.negative_cache.skip_reason(request.source_id)
                if self.negative_cache is not None
                else None
            )
            if reason is None:
                requests.append(request)
                continue
            search.outcomes[request.source_id] = SourceOutcome.skip(
                request.source_id, reason, request.sibling_ids
            )
            search.negative_skips += 1
            tracer.event(
                "cache",
                parent=search.span,
                source=request.source_id,
                status="negative-skip",
            )
        return requests

    def _dispatcher(self, search: _Round) -> QueryDispatcher:
        return QueryDispatcher(
            self.client,
            executor=search.executor,
            policy=self.query_policy,
            tracer=search.tracer,
        )

    def _batch_round(self, search: _Round) -> None:
        """Dispatch every request, then merge once over what answered."""
        tracer, requests = search.tracer, self._translate(search)
        with tracer.span(
            "query",
            parent=search.span,
            executor=search.executor.name,
            requests=len(requests),
        ) as query_span:
            for outcome in self._dispatcher(search).dispatch(
                requests, parent=query_span
            ):
                search.outcomes[outcome.source_id] = outcome
        answered = _answered(search.outcomes)
        with tracer.span(
            "merge",
            parent=search.span,
            strategy=type(search.merger).__name__,
            sources=len(answered),
        ):
            documents = search.merger.merge(
                answered, self._merge_context(search).restricted_to(answered)
            )
            if search.query.max_number_documents:
                documents = documents[: search.query.max_number_documents]
        self._finish(search, documents)

    def _stream_round(
        self, search: _Round, deadline_ms: float | None, early_stop: bool
    ) -> Iterator[StreamEmission]:
        """Dispatch as a stream, merging and emitting per arrival.

        A generator: yields one emission per completed source and
        *returns* the final one (carrying the assembled result) for the
        driver to send once the search is accounted for.  The ``query``
        span stays open across the yields, so it is opened explicitly,
        off the tracer's thread-local stack.
        """
        tracer, requests = search.tracer, self._translate(search)
        outcomes = search.outcomes
        # The accumulator narrows the candidates' context to the sources
        # that actually answer, so the final rank matches the batch merge.
        stream_merge = StreamingMerge(search.merger, self._merge_context(search))
        # Until the round is finished the search's result is a live view
        # of what has answered — all an abandoned stream ever gets to log.
        search.result = MetasearchResult([], search.selected_ids, outcomes=outcomes)
        k = search.query.max_number_documents
        pending = {request.source_id: request for request in requests}
        termination_reason: str | None = None
        sequence = 0

        query_span = tracer.open_span(
            "query",
            parent=search.span,
            executor=search.executor.name,
            requests=len(requests),
            streaming=True,
        )
        dispatcher = self._dispatcher(search)
        outcome_stream = dispatcher.dispatch_stream(requests, parent=query_span)
        try:
            for outcome in outcome_stream:
                outcomes[outcome.source_id] = outcome
                del pending[outcome.source_id]
                if outcome.ok and outcome.results is not None:
                    stream_merge.feed(outcome.source_id, outcome.results)
                search.result.documents = documents = stream_merge.current_top_k(k)
                elapsed_ms = tracer.now_ms() - search.started_ms
                tracer.event(
                    f"emit:{sequence}",
                    parent=query_span,
                    source=outcome.source_id,
                    status=outcome.status.value,
                    documents=len(documents),
                    pending=len(pending),
                )
                yield StreamEmission(
                    sequence=sequence,
                    outcome=outcome,
                    documents=list(documents),
                    completed=len(outcomes),
                    pending=len(pending),
                    elapsed_ms=elapsed_ms,
                )
                sequence += 1
                if not pending:
                    break
                if deadline_ms is not None and elapsed_ms >= deadline_ms:
                    termination_reason = "stream deadline expired"
                    break
                if early_stop and k and stream_merge.is_stable_top_k(k, pending):
                    termination_reason = (
                        "top-k stable: no pending source can change the answer"
                    )
                    break
            if termination_reason is not None:
                query_span.annotate(terminated_early=True, reason=termination_reason)
                tracer.event(
                    "early-termination", parent=query_span, reason=termination_reason
                )
        finally:
            # Break or thrown-in close: abandon in-flight tasks now,
            # not at garbage collection.
            outcome_stream.close()
            tracer.close_span(query_span)
        # Sources are only left pending by an early termination; each
        # keeps the requests it had already made (and paid for).
        for source_id in sorted(pending):
            landed = tuple(dispatcher.attempts.get(source_id, ()))
            outcomes[source_id] = replace(
                SourceOutcome.cancelled(
                    source_id, termination_reason, pending[source_id].sibling_ids
                ),
                attempts=landed,
                elapsed_ms=sum(
                    attempt.backoff_before_ms + attempt.latency_ms
                    for attempt in landed
                    if not attempt.hedged
                ),
                cost=sum(attempt.cost for attempt in landed),
            )
        documents = list(stream_merge.current_top_k(k))
        return StreamEmission(
            sequence=sequence,
            outcome=None,
            documents=documents,
            completed=len(outcomes),
            pending=len(pending),
            elapsed_ms=tracer.now_ms() - search.started_ms,
            terminated_early=termination_reason is not None,
            result=self._finish(search, list(documents)),
        )

    def _merge_context(self, search: _Round) -> MergeContext:
        """The STARTS raw material of every *candidate* source; merging
        narrows it to the sources that answer (``restricted_to``)."""
        known = {
            source_id: search.catalog.sources[source_id]
            for source_id in search.selected_ids
        }
        return MergeContext(
            metadata={source_id: source.metadata for source_id, source in known.items()},
            summaries=search.summaries,
            samples={
                source_id: source.sample_results
                for source_id, source in known.items()
                if source.sample_results is not None
            },
            query_terms=tuple(search.terms),
        )

    def _finish(
        self, search: _Round, documents: list[MergedDocument]
    ) -> MetasearchResult:
        """Feed the outcomes back (negative cache), assemble the result,
        and file it in the result cache.

        Only a round every entry source answered is stored: each outcome
        ``OK`` or a translation skip (a fixed function of the query and
        the source's metadata).  An error, a timeout, a negative skip or
        a cancellation answered with fewer sources than the key promises,
        and would be served after the source heals.  ``trace`` is
        attached when the search is accounted for.
        """
        outcomes = search.outcomes
        self._record_outcomes(outcomes)
        # Each outcome is one routed group; its elapsed_ms already sums
        # the requests within the group (attempts, backoff, hedges are
        # sequential on that group's wire).  A serial client pays the
        # sum across groups, a fan-out client the slowest group.
        group_times = [outcome.elapsed_ms for outcome in outcomes.values()]
        search.result = result = MetasearchResult(
            documents,
            list(search.selected_ids),
            _answered(outcomes),
            search.reports,
            query_latency_serial_ms=sum(group_times),
            query_latency_parallel_ms=max(group_times, default=0.0),
            outcomes=outcomes,
        )
        if (
            search.key is not None
            and not search.negative_skips
            and all(
                outcome.ok or outcome.status is OutcomeStatus.SKIPPED
                for outcome in outcomes.values()
            )
        ):
            evictions = self.result_cache.store(search.key, self._copy_result(result))
            if search.cache_event is not None:
                search.cache_event.annotate(evictions=evictions)
        return result

    @staticmethod
    def _copy_result(
        source: MetasearchResult, cache_status: str | None = None
    ) -> MetasearchResult:
        """A fresh :class:`MetasearchResult` with shallow-copied containers,
        so cached master and served copies never share mutable state."""
        return MetasearchResult(
            documents=list(source.documents),
            selected_sources=list(source.selected_sources),
            per_source_results=dict(source.per_source_results),
            translation_reports=dict(source.translation_reports),
            query_latency_serial_ms=source.query_latency_serial_ms,
            query_latency_parallel_ms=source.query_latency_parallel_ms,
            outcomes=dict(source.outcomes),
            cache_status=cache_status,
        )

    def _record_outcomes(self, outcomes: dict[str, SourceOutcome]) -> None:
        """Feed query-round outcomes back into the negative cache."""
        if self.negative_cache is None:
            return
        for source_id, outcome in outcomes.items():
            if outcome.ok:
                self.negative_cache.record_success(source_id)
            elif outcome.status in (OutcomeStatus.ERROR, OutcomeStatus.TIMEOUT):
                self.negative_cache.record_failure(
                    source_id, outcome.status.value, outcome.error
                )

    @staticmethod
    def _route(search: _Round) -> list[tuple[str, list[str]]]:
        """(entry source, sibling sources) pairs for the query round.

        Without grouping every source is its own entry.  With grouping,
        sources sharing a resource collapse into one entry (the
        best-ranked one) carrying the rest in ``Sources``.
        """
        if not search.group_by_resource:
            return [(source_id, []) for source_id in search.selected_ids]
        by_resource: dict[str | None, list[str]] = {}
        order: list[str | None] = []
        for source_id in search.selected_ids:
            resource_url = search.catalog.sources[source_id].resource_url
            if resource_url not in by_resource:
                by_resource[resource_url] = []
                order.append(resource_url)
            by_resource[resource_url].append(source_id)
        return [
            (members[0], members[1:])
            for members in (by_resource[resource_url] for resource_url in order)
        ]

    @staticmethod
    def _selection_terms(query: SQuery) -> list[str]:
        """The words used for source selection: all expression terms."""
        seen: list[str] = []
        for term in query.expression_terms():
            if term.comparison_modifier_present():
                continue  # Dates and other comparisons say nothing topical.
            for word in term.lstring.text.split():
                lowered = word.lower()
                if lowered not in seen:
                    seen.append(lowered)
        return seen
