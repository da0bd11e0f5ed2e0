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
from collections.abc import Iterable, Iterator, Sequence
from contextlib import contextmanager
from dataclasses import dataclass, field as dataclass_field

from repro.cache.core import FRESH, STALE
from repro.cache.keys import query_cache_key
from repro.cache.negative import NegativeSourceCache
from repro.cache.policy import CachePolicy
from repro.cache.results import QueryResultCache
from repro.federation.executor import Executor, SerialExecutor, submit_background
from repro.federation.outcomes import OutcomeStatus, SourceOutcome
from repro.federation.policy import QueryPolicy
from repro.federation.runner import QueryDispatcher, SourceRequest
from repro.metasearch.discovery import DiscoveryService, KnownSource
from repro.metasearch.merging import (
    MergeContext,
    MergedDocument,
    MergeStrategy,
    StreamingMerge,
    TfIdfRecomputeMerge,
)
from repro.metasearch.selection import SourceSelector, VGlossMax
from repro.metasearch.translation import ClientTranslator, TranslationReport
from repro.observability.metrics import get_registry
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


@contextmanager
def _phase(tracer: Tracer, name: str, parent: Span | None = None, **attributes):
    """One pipeline phase: its span, and its ``metasearch_phase_ms`` sample.

    ``name`` may carry a ``:<source id>`` suffix (``translate:S1``); the
    histogram is labelled by the part before it.  The span nests on the
    tracer's thread-local stack, so a phase must not be held open
    across a generator's ``yield`` — the one phase that is (a streamed
    ``query``) opens its span explicitly and calls :func:`_observe_phase`.
    """
    with tracer.span(name, parent=parent, **attributes) as span:
        yield span
    _observe_phase(name.split(":", 1)[0], span.duration_ms)


def _observe_phase(phase: str, duration_ms: float) -> None:
    get_registry().histogram(
        "metasearch_phase_ms",
        "Wall-clock duration of each metasearch pipeline phase.",
        labels=("phase",),
    ).labels(phase=phase).observe(duration_ms)


#: Pipeline phase names folded into the wide event's ``phase_ms``.
_LOGGED_PHASES = ("discover", "select", "translate", "query", "merge")


@dataclass
class _Search:
    """One search in flight: what its exit will count and log.

    The drivers fill in ``outcome`` (``wire`` / ``stream`` / ``hit`` /
    ``stale``; the scope itself adds ``error`` / ``abandoned``)
    and ``result`` as they go; :meth:`Metasearcher._search_scope` reads
    them exactly once, however the search ends.
    """

    tracer: Tracer
    span: Span
    terms: list[str]
    started_ms: float
    selected_ids: Sequence[str] = ()
    outcome: str | None = None
    result: "MetasearchResult | None" = None
    error: str = ""
    terminated_early: bool = False

    def finish(self) -> None:
        """Count the search and emit the one wide event it owes.

        The whole-search histogram gets the wall-clock observation
        (with the trace id as its exemplar), and the process query log
        gets the flat record — query shape, per-phase times folded from
        the trace's spans, wire/cache tallies from the tracer's counters.
        """
        tracer, result = self.tracer, self.result
        if result is not None:
            result.trace = tracer.trace()
        get_registry().counter(
            "metasearch_searches_total",
            "Completed searches by how the answer was produced.",
            labels=("result",),
        ).labels(result=self.outcome).inc()
        elapsed_ms = tracer.now_ms() - self.started_ms
        get_registry().histogram(
            "metasearch_search_ms",
            "Whole-search wall-clock milliseconds, every exit path included.",
        ).observe(elapsed_ms, exemplar=tracer.trace_id)
        log = get_query_log()
        if not log.enabled:
            return
        phase_ms: dict[str, float] = {}
        for span in tracer.trace().walk():
            phase = span.name.split(":", 1)[0]
            if phase in _LOGGED_PHASES:
                phase_ms[phase] = phase_ms.get(phase, 0.0) + span.duration_ms
        per_source = list(tracer.counters.values())

        def total(name: str) -> float:
            return sum(getattr(counters, name) for counters in per_source)

        cache = tracer.cache
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
                requests=total("requests"),
                retries=total("retries"),
                hedges=total("hedges"),
                timeouts=total("timeouts"),
                failures=total("failures"),
                cache_hits=cache.hits if cache is not None else 0,
                cache_stale_hits=cache.stale_hits if cache is not None else 0,
                negative_skips=cache.negative_skips if cache is not None else 0,
                cost=float(total("cost")),
                terminated_early=self.terminated_early,
                error=self.error,
            )
        )


@dataclass
class _Plan:
    """What the prepare phase decided: which sources, asked how, keyed how.

    ``summaries`` holds the *selected* sources' content summaries only —
    everything downstream (translation, the merge context) needs no more.
    """

    query: SQuery
    terms: list[str]
    selected_ids: list[str]
    summaries: dict[str, SContentSummary]
    merger: MergeStrategy
    executor: Executor
    group_by_resource: bool
    #: The result-cache key; ``None`` when result caching is off.
    key: str | None


def _answered(outcomes: dict[str, SourceOutcome]) -> dict[str, SQResults]:
    """The results of the sources that answered, in outcome order."""
    return {
        source_id: outcome.results
        for source_id, outcome in outcomes.items()
        if outcome.ok and outcome.results is not None
    }


@dataclass
class _CachedSearch:
    """What the result cache stores: the sanitized result + its wire cost.

    ``cost`` is the simulated monetary cost the original round paid
    (every attempt, failed or hedged, included) — it becomes
    ``cost_saved`` each time a hit avoids re-paying it.
    """

    result: "MetasearchResult"
    cost: float


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
    #: ``"hit"`` / ``"stale"`` when it was served from the result cache
    #: (``"stale"`` means a background revalidation was scheduled).
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
        tree with a self-time column, each of ``fragments`` (the
        server-side traces a :class:`~repro.observability.TraceCollector`
        gathered) under the client span that issued its request; the
        per-source and cache counters; and the search's query-log record.
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
            self.discovery.add_purge_hook(self._purge_source)

    def _purge_source(self, source_id: str) -> None:
        """Source knowledge changed or was forgotten: drop derived caches."""
        if self.result_cache is not None:
            self.result_cache.invalidate_source(source_id)
        if self.negative_cache is not None:
            self.negative_cache.forget(source_id)

    # -- discovery ---------------------------------------------------------

    def refresh(self, tracer: Tracer | None = None) -> list[KnownSource]:
        """Harvest every configured resource; returns all known sources."""
        tracer = tracer or Tracer()
        # The harvest's fetch events go to this call's tracer through a
        # private client, never through state left on the shared one.
        harvester = StartsClient(self.client.internet, tracer=tracer)
        with _phase(tracer, "discover", resources=len(self.resource_urls)):
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
            tracer: receives the phase spans and per-source counters; a
                fresh tracer backs each search when none is given, and
                its trace is attached to the result either way.

        Raises:
            ProtocolError: if the query has neither expression, or no
                sources have been discovered yet.
        """
        with self._search_scope(query, tracer or Tracer()) as search:
            plan = self._prepare(
                search, query, k_sources, selector, merger, executor, group_by_resource
            )
            if not self._serve_from_cache(search, plan):
                search.result = self._batch_round(search.tracer, plan, search.span)
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

        The same phases — prepare, serve from cache, plan the round,
        finish the round — but the query round streams: every completed
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
        outcomes — visible in the result, neutral to the negative cache.
        An early-terminated result is never stored in the result cache;
        cache hits and stale serves come back as a single final
        emission, exactly as :meth:`search` serves them.
        A consumer that closes the stream before its final emission
        cancels what is in flight the same way; that search is counted
        and logged as ``abandoned``, with whatever had answered by then.
        """
        with self._search_scope(query, tracer or Tracer()) as search:
            plan = self._prepare(
                search, query, k_sources, selector, merger, executor, group_by_resource
            )
            if self._serve_from_cache(search, plan):
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
                final = yield from self._stream_round(
                    search, plan, deadline_ms, early_stop
                )
                search.outcome, search.result = "stream", final.result
                search.terminated_early = final.terminated_early
        # Counted and logged before the final emission goes out: a
        # consumer that stops there leaves nothing undone.
        yield final

    # -- the phases, each written once -------------------------------------

    @contextmanager
    def _search_scope(self, query: SQuery, tracer: Tracer) -> Iterator[_Search]:
        """Validate, open the ``search`` span, and account for the exit.

        Whatever happens inside — an answer off the wire, a cache serve,
        an exception, a stream whose consumer closes it before the final
        emission (``abandoned``: its wire requests were still paid for)
        — the search is counted and logged exactly once, here.  The span
        is opened explicitly so the scope may straddle a generator's
        ``yield``.
        """
        query.validate()
        if (
            not self.discovery.summary_index().source_count
            and not self.discovery.known_sources()
        ):
            raise ProtocolError("no sources discovered; call refresh() first")
        terms = self._selection_terms(query)
        search = _Search(
            tracer,
            tracer.open_span("search", terms=" ".join(terms)),
            terms,
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
                search.finish()

    def _prepare(
        self,
        search: _Search,
        query: SQuery,
        k_sources: int,
        selector: SourceSelector | None,
        merger: MergeStrategy | None,
        executor: Executor | None,
        group_by_resource: bool,
    ) -> _Plan:
        """Select the sources and derive the result-cache key."""
        selector = selector or self.selector
        merger = merger or self.merger
        tracer, terms = search.tracer, search.terms
        with _phase(
            tracer, "select", search.span, selector=selector.name, k=k_sources
        ) as span:
            indexed = self.discovery.summary_index().source_count
            if indexed:
                selected_ids = self._pick_sources(
                    tracer, span, selector, terms, k_sources
                )
            else:
                # No source exported a summary: nothing to score, so the
                # first k by id stand in.
                known = self.discovery.known_sources()
                selected_ids = [source.source_id for source in known[:k_sources]]
            span.annotate(summaries=indexed, selected=" ".join(selected_ids))
        search.selected_ids = selected_ids
        key: str | None = None
        if self.result_cache is not None:
            # The canonical query plus everything else that changes the
            # merged answer for a fixed source set.
            key = "|".join(
                (
                    query_cache_key(query, selected_ids),
                    f"grp={'T' if group_by_resource else 'F'}",
                    f"merge={type(merger).__name__}",
                )
            )
        return _Plan(
            query,
            terms,
            selected_ids,
            {
                source_id: summary
                for source_id in selected_ids
                if (summary := self.discovery.source(source_id).summary) is not None
            },
            merger,
            executor or self.executor,
            group_by_resource,
            key,
        )

    def _pick_sources(
        self,
        tracer: Tracer,
        span: Span,
        selector: SourceSelector,
        terms: list[str],
        k_sources: int,
    ) -> list[str]:
        """The top ``k_sources`` ids for ``terms`` — the hook a subclass
        overrides to select through something other than the flat,
        incrementally maintained summary index (sparse term shards
        instead of a dense scan over every summary)."""
        return selector.select(terms, self.discovery.summary_index(), k_sources)

    def _serve_from_cache(self, search: _Search, plan: _Plan) -> bool:
        """Answer from the result cache if it holds the plan's key.

        A fresh entry is served as a ``hit``; a stale one is served as
        ``stale`` and a revalidation of the same plan is scheduled.
        Either way the caller gets a copy — the latency fields keep the
        *original* wire cost on purpose (they model what the answer cost
        to compute); the trace and ``cache_status`` show it was not paid
        again.  Returns False on a miss (or with caching off).
        """
        if plan.key is None:
            return False
        tracer = search.tracer
        cached, state = self.result_cache.lookup(plan.key)
        if state == FRESH:
            status = "hit"
            tracer.count_cache(hits=1, cost_saved=cached.cost)
            tracer.event(
                "cache", parent=search.span, status=status, saved_cost=cached.cost
            )
        elif state == STALE:
            status = "stale"
            tracer.count_cache(stale_hits=1)
            tracer.event("cache", parent=search.span, status=status)
            self._schedule_revalidation(plan)
        else:
            tracer.count_cache(misses=1)
            return False
        search.outcome = status
        search.result = self._copy_result(cached.result, cache_status=status)
        return True

    def _plan_round(
        self, tracer: Tracer, plan: _Plan, parent: Span | None
    ) -> tuple[QueryDispatcher, list[SourceRequest], dict[str, SourceOutcome], dict]:
        """Translate per routed group, drop negative-cached groups, and
        build the dispatcher that will run what is left.

        Returns ``(dispatcher, requests, outcomes, reports)``;
        ``outcomes`` already holds a ``SKIPPED`` entry for every group
        that will not reach the wire, with the reason on record.
        """
        translated_requests: list[SourceRequest] = []
        outcomes: dict[str, SourceOutcome] = {}
        reports: dict[str, TranslationReport] = {}
        for entry_id, sibling_ids in self._route(
            plan.selected_ids, plan.group_by_resource
        ):
            with _phase(tracer, f"translate:{entry_id}", parent) as span:
                source = self.discovery.source(entry_id)
                translated, report = self.translator.translate(
                    plan.query,
                    source.metadata,
                    summary=plan.summaries.get(entry_id),
                    target=source.translation_target,
                )
                reports[entry_id] = report
                span.annotate(
                    lossless=report.is_lossless(), dropped=len(report.dropped)
                )
                if (
                    translated.filter_expression is None
                    and translated.ranking_expression is None
                ):
                    # Nothing would survive: skip the round trip, on record.
                    outcomes[entry_id] = SourceOutcome.skip(
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
        # is an outcome, a tracer tally and a line in explain().
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
            outcomes[request.source_id] = SourceOutcome.skip(
                request.source_id, reason, request.sibling_ids
            )
            tracer.count_cache(negative_skips=1)
            tracer.event(
                "cache", parent=parent, source=request.source_id, status="negative-skip"
            )

        dispatcher = QueryDispatcher(
            self.client,
            executor=plan.executor,
            policy=self.query_policy,
            tracer=tracer,
        )
        return dispatcher, requests, outcomes, reports

    def _batch_round(
        self, tracer: Tracer, plan: _Plan, parent: Span | None = None
    ) -> MetasearchResult:
        """Dispatch every request, then merge once over what answered."""
        dispatcher, requests, outcomes, reports = self._plan_round(
            tracer, plan, parent
        )
        with _phase(
            tracer,
            "query",
            parent,
            executor=plan.executor.name,
            requests=len(requests),
        ) as query_span:
            for outcome in dispatcher.dispatch(requests, parent=query_span):
                outcomes[outcome.source_id] = outcome
        answered = _answered(outcomes)
        with _phase(
            tracer,
            "merge",
            parent,
            strategy=type(plan.merger).__name__,
            sources=len(answered),
        ):
            documents = plan.merger.merge(
                answered, self._merge_context(plan).restricted_to(answered)
            )
            if plan.query.max_number_documents:
                documents = documents[: plan.query.max_number_documents]
        return self._finish_round(tracer, plan, outcomes, reports, documents)

    def _stream_round(
        self,
        search: _Search,
        plan: _Plan,
        deadline_ms: float | None,
        early_stop: bool,
    ) -> Iterator[StreamEmission]:
        """Dispatch as a stream, merging and emitting per arrival.

        A generator: yields one emission per completed source and
        *returns* the final one (carrying the assembled result) for the
        driver to send once the search is accounted for.  The ``query``
        span stays open across the yields, so it is opened explicitly,
        not via :func:`_phase`.
        """
        tracer = search.tracer
        dispatcher, requests, outcomes, reports = self._plan_round(
            tracer, plan, search.span
        )
        # The accumulator narrows the candidates' context to the sources
        # that actually answer, so the final rank matches the batch merge.
        stream_merge = StreamingMerge(plan.merger, self._merge_context(plan))
        # Until the round is assembled the search's result is a live view
        # of what has answered — all an abandoned stream ever gets to log.
        search.result = MetasearchResult([], plan.selected_ids, outcomes=outcomes)
        k = plan.query.max_number_documents
        pending_ids = {request.source_id for request in requests}
        termination_reason: str | None = None
        sequence = 0
        first_result_seen = False

        query_span = tracer.open_span(
            "query",
            parent=search.span,
            executor=plan.executor.name,
            requests=len(requests),
            streaming=True,
        )
        outcome_stream = dispatcher.dispatch_stream(requests, parent=query_span)
        try:
            for outcome in outcome_stream:
                outcomes[outcome.source_id] = outcome
                pending_ids.discard(outcome.source_id)
                if outcome.ok and outcome.results is not None:
                    stream_merge.feed(outcome.source_id, outcome.results)
                search.result.documents = documents = stream_merge.current_top_k(k)
                elapsed_ms = tracer.now_ms() - search.started_ms
                if documents and not first_result_seen:
                    first_result_seen = True
                    get_registry().histogram(
                        "stream_first_result_ms",
                        "Wall-clock time until a streamed search first "
                        "emitted merged documents.",
                    ).observe(elapsed_ms)
                tracer.event(
                    f"emit:{sequence}",
                    parent=query_span,
                    source=outcome.source_id,
                    status=outcome.status.value,
                    documents=len(documents),
                    pending=len(pending_ids),
                )
                yield StreamEmission(
                    sequence=sequence,
                    outcome=outcome,
                    documents=list(documents),
                    completed=len(outcomes),
                    pending=len(pending_ids),
                    elapsed_ms=elapsed_ms,
                )
                sequence += 1
                if not pending_ids:
                    break
                if deadline_ms is not None and elapsed_ms >= deadline_ms:
                    termination_reason = "stream deadline expired"
                    break
                if early_stop and k and stream_merge.is_stable_top_k(k, pending_ids):
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
        _observe_phase("query", query_span.duration_ms)
        # Sources are only left pending by an early termination.
        for source_id in sorted(pending_ids):
            outcomes[source_id] = SourceOutcome.cancelled(source_id, termination_reason)
        documents = list(stream_merge.current_top_k(k))
        return StreamEmission(
            sequence=sequence,
            outcome=None,
            documents=documents,
            completed=len(outcomes),
            pending=len(pending_ids),
            elapsed_ms=tracer.now_ms() - search.started_ms,
            terminated_early=termination_reason is not None,
            result=self._finish_round(
                tracer,
                plan,
                outcomes,
                reports,
                list(documents),
                complete=termination_reason is None,
            ),
        )

    def _merge_context(self, plan: _Plan) -> MergeContext:
        """The STARTS raw material of every *candidate* source; merging
        narrows it to the sources that answer (``restricted_to``)."""
        known = {
            source_id: self.discovery.source(source_id)
            for source_id in plan.selected_ids
        }
        return MergeContext(
            metadata={source_id: source.metadata for source_id, source in known.items()},
            summaries=plan.summaries,
            samples={
                source_id: source.sample_results
                for source_id, source in known.items()
                if source.sample_results is not None
            },
            query_terms=tuple(plan.terms),
        )

    def _finish_round(
        self,
        tracer: Tracer,
        plan: _Plan,
        outcomes: dict[str, SourceOutcome],
        reports: dict[str, TranslationReport],
        documents: list[MergedDocument],
        complete: bool = True,
    ) -> MetasearchResult:
        """Feed the outcomes back (negative cache), assemble the result,
        and file it in the result cache.

        Only a ``complete`` round is cacheable: a cancelled one answered
        with fewer sources than the key promises.  ``trace`` is attached
        when the owning search finishes; a revalidation's result never
        gets one.
        """
        self._record_outcomes(outcomes)
        # Each outcome is one routed group; its elapsed_ms already sums
        # the requests within the group (attempts, backoff, hedges are
        # sequential on that group's wire).  A serial client pays the
        # sum across groups, a fan-out client the slowest group.
        group_times = [outcome.elapsed_ms for outcome in outcomes.values()]
        result = MetasearchResult(
            documents,
            list(plan.selected_ids),
            _answered(outcomes),
            reports,
            query_latency_serial_ms=sum(group_times),
            query_latency_parallel_ms=max(group_times, default=0.0),
            outcomes=outcomes,
        )
        if complete and plan.key is not None:
            wire_cost = sum(outcome.cost for outcome in outcomes.values())
            evictions = self.result_cache.store(
                plan.key,
                _CachedSearch(self._copy_result(result), wire_cost),
                source_ids=plan.selected_ids,
            )
            tracer.count_cache(stores=1, evictions=evictions)
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

    def _schedule_revalidation(self, plan: _Plan) -> None:
        """Refresh a stale entry off the caller's critical path.

        Single-flight per key; the refresh re-runs the batch round for
        the *same* plan (the key binds its source set, and the round
        files its result under it) on a private tracer, so nothing it
        records lands in the caller's trace.
        Scheduling goes through the executor's ``submit`` hook: the
        serial executor revalidates inline (deterministic), the async
        one on a daemon thread.
        """
        if not self.result_cache.begin_revalidation(plan.key):
            return

        def refresh() -> None:
            try:
                self._batch_round(Tracer(), plan)
            finally:
                self.result_cache.finish_revalidation(plan.key)

        submit_background(plan.executor, refresh)

    def _route(
        self, selected_ids: list[str], group_by_resource: bool
    ) -> list[tuple[str, list[str]]]:
        """(entry source, sibling sources) pairs for the query round.

        Without grouping every source is its own entry.  With grouping,
        sources sharing a resource collapse into one entry (the
        best-ranked one) carrying the rest in ``Sources``.
        """
        if not group_by_resource:
            return [(source_id, []) for source_id in selected_ids]
        by_resource: dict[str | None, list[str]] = {}
        order: list[str | None] = []
        for source_id in selected_ids:
            resource_url = self.discovery.source(source_id).resource_url
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
