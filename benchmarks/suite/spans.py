"""Outside-in layer spans for the traced pass.

Nothing under ``src/`` knows about this file.  For one pass only,
:class:`LayerShim` replaces the public callable at each layer boundary
with a wrapper that records *name, start, end, parent* into a
:class:`SpanRecorder`, then puts every original back.  One span tree per
operation; a layer's **self time** is its span's active duration minus
what its child spans cover, so the self times of one serial operation
sum to its wall time exactly.

Three wrapper shapes, because the boundaries come in three shapes:

* plain calls (``SearchEngine.search``);
* coroutines (``StartsClient.query_with_record_async``), whose spans
  overlap their siblings' on the event loop — coverage is a union;
* generators (``Metasearcher.search_stream``,
  ``QueryDispatcher.dispatch_stream``), which are only *active* inside
  ``next()``: the stretches spent suspended at a ``yield`` are recorded
  as gaps and belong to whoever is consuming the stream.
"""

from __future__ import annotations

import asyncio
import functools
import json
import time
from collections.abc import Callable, Iterable
from contextvars import ContextVar

import repro.cache.keys as cache_keys
import repro.metasearch.client as client_module
from repro.cache.core import FRESH
from repro.cache.results import QueryResultCache
from repro.engine.search import SearchEngine
from repro.federation.runner import QueryDispatcher
from repro.metasearch.client import Metasearcher
from repro.metasearch.discovery import DiscoveryService
from repro.metasearch.merging import StreamingMerge
from repro.metasearch.translation import ClientTranslator
from repro.resource import Resource
from repro.source import StartsSource
from repro.transport import SimulatedInternet, StartsClient

__all__ = ["Span", "SpanRecorder", "LayerShim", "self_times"]

_MISSING = object()


class Span:
    __slots__ = ("op", "id", "parent", "name", "start", "end", "gaps", "attrs", "token")

    def __init__(self, op: int, span_id: int, parent: int | None, name: str) -> None:
        self.op = op
        self.id = span_id
        self.parent = parent
        self.name = name
        self.start = time.perf_counter()
        self.end = self.start
        #: ``(from, to)`` stretches a generator span spent suspended.
        self.gaps: list[tuple[float, float]] = []
        self.attrs: dict[str, float] = {}
        self.token = None

    def active(self) -> list[tuple[float, float]]:
        """``[start, end]`` minus the suspended stretches."""
        pieces = []
        cursor = self.start
        for gap_start, gap_end in self.gaps:
            if gap_start > cursor:
                pieces.append((cursor, gap_start))
            cursor = max(cursor, gap_end)
        if self.end > cursor:
            pieces.append((cursor, self.end))
        return pieces


class SpanRecorder:
    """In-memory span sink; one instance per traced run."""

    def __init__(self) -> None:
        self.spans: list[Span] = []
        #: Spans kept for the NDJSON file (the harvest and the last
        #: traced pass); :meth:`clear` leaves them alone.
        self.archive: list[Span] = []
        self._next_id = 0
        #: The operation the next root span belongs to (set by the driver).
        self.op = -1
        #: ``requests`` lists seen by the dispatcher, for the
        #: stream-over-batch comparison.
        self.dispatched: list[list] = []
        self._current: ContextVar[int | None] = ContextVar(
            "suite_current_span", default=None
        )

    def open(self, name: str) -> Span:
        span = Span(self.op, self._next_id, self._current.get(), name)
        self._next_id += 1
        self.spans.append(span)
        span.token = self._current.set(span.id)
        return span

    def close(self, span: Span) -> None:
        span.end = time.perf_counter()
        self._current.reset(span.token)

    def suspend(self, span: Span) -> None:
        self.close(span)

    def resume(self, span: Span) -> None:
        now = time.perf_counter()
        span.gaps.append((span.end, now))
        span.end = now
        span.token = self._current.set(span.id)

    def clear(self) -> None:
        self.spans = []
        self.dispatched = []

    def archive_spans(self) -> None:
        self.archive.extend(self.spans)

    def write_ndjson(self, path) -> None:
        origin = self.archive[0].start if self.archive else 0.0
        with open(path, "w", encoding="utf-8") as handle:
            for span in self.archive:
                handle.write(
                    json.dumps(
                        {
                            "op": span.op,
                            "id": span.id,
                            "parent": span.parent,
                            "name": span.name,
                            "start_ms": (span.start - origin) * 1000.0,
                            "end_ms": (span.end - origin) * 1000.0,
                            "suspended_ms": sum(b - a for a, b in span.gaps) * 1000.0,
                            "attrs": span.attrs,
                        }
                    )
                    + "\n"
                )


# -- self time ---------------------------------------------------------------


def _union(intervals: Iterable[tuple[float, float]]) -> list[tuple[float, float]]:
    merged: list[tuple[float, float]] = []
    for start, end in sorted(intervals):
        if merged and start <= merged[-1][1]:
            if end > merged[-1][1]:
                merged[-1] = (merged[-1][0], end)
        else:
            merged.append((start, end))
    return merged


def _overlap(a: list[tuple[float, float]], b: list[tuple[float, float]]) -> float:
    """Total length of the intersection of two sorted disjoint interval lists."""
    total = 0.0
    i = j = 0
    while i < len(a) and j < len(b):
        low = max(a[i][0], b[j][0])
        high = min(a[i][1], b[j][1])
        if high > low:
            total += high - low
        if a[i][1] < b[j][1]:
            i += 1
        else:
            j += 1
    return total


def self_times(spans: list[Span]) -> dict[int, float]:
    """``span id -> self seconds``: active time not covered by children."""
    children: dict[int, list[Span]] = {}
    for span in spans:
        if span.parent is not None:
            children.setdefault(span.parent, []).append(span)
    result: dict[int, float] = {}
    for span in spans:
        active = span.active()
        duration = sum(end - start for start, end in active)
        kids = children.get(span.id)
        if kids:
            covered = _union(piece for kid in kids for piece in kid.active())
            duration -= _overlap(active, covered)
        result[span.id] = duration
    return result


# -- wrappers ----------------------------------------------------------------

Annotate = Callable[[Span, tuple, object], None]


def _wrap_call(recorder: SpanRecorder, name: str, fn, annotate: Annotate | None):
    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        span = recorder.open(name)
        try:
            result = fn(*args, **kwargs)
            if annotate is not None:
                annotate(span, args, result)
            return result
        finally:
            recorder.close(span)

    return wrapper


def _wrap_coroutine(recorder: SpanRecorder, name: str, fn, annotate: Annotate | None):
    @functools.wraps(fn)
    async def wrapper(*args, **kwargs):
        span = recorder.open(name)
        try:
            result = await fn(*args, **kwargs)
            if annotate is not None:
                annotate(span, args, result)
            return result
        finally:
            recorder.close(span)

    return wrapper


def _wrap_generator(recorder: SpanRecorder, name: str, fn, annotate: Annotate | None):
    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        inner = fn(*args, **kwargs)
        span = recorder.open(name)
        if annotate is not None:
            annotate(span, args, None)
        suspended = False
        try:
            while True:
                try:
                    item = next(inner)
                except StopIteration:
                    return
                recorder.suspend(span)
                suspended = True
                yield item
                recorder.resume(span)
                suspended = False
        finally:
            # Closing the inner generator is real work (the dispatcher
            # cancels in-flight tasks there): it counts as active time.
            if suspended:
                recorder.resume(span)
            inner.close()
            recorder.close(span)

    return wrapper


# -- per-boundary annotations ---------------------------------------------------


def _note_perform(span: Span, args: tuple, result) -> None:
    body = args[3] if len(args) > 3 else None
    span.attrs["bytes"] = len(result[0]) + (len(body) if body else 0)


def _note_source_search(span: Span, args: tuple, result) -> None:
    span.attrs["docs"] = len(result.documents)


def _note_merge(span: Span, args: tuple, result) -> None:
    span.attrs["docs"] = sum(len(results.documents) for results in args[1].values())


def _note_translate(span: Span, args: tuple, result) -> None:
    span.attrs["lossless"] = 1 if result[1].is_lossless() else 0


def _note_lookup(span: Span, args: tuple, result) -> None:
    span.attrs["hit"] = 1 if result[1] == FRESH else 0


def _note_store(span: Span, args: tuple, result) -> None:
    span.attrs["evictions"] = result


def _defining_class(cls: type, attribute: str) -> type:
    for klass in cls.__mro__:
        if attribute in vars(klass):
            return klass
    raise AttributeError(f"{cls.__name__} has no attribute {attribute!r}")


class LayerShim:
    """Installs and removes the span wrappers (a context manager)."""

    def __init__(self, recorder: SpanRecorder, searcher) -> None:
        self.recorder = recorder
        selector_class = _defining_class(type(searcher.selector), "select")
        merger_class = _defining_class(type(searcher.merger), "merge")

        def note_dispatch(span: Span, args: tuple, result) -> None:
            span.attrs["requests"] = len(args[1])
            recorder.dispatched.append(list(args[1]))

        call, coroutine, generator = _wrap_call, _wrap_coroutine, _wrap_generator
        #: (owner, attribute, span name, wrapper shape, annotation)
        self.targets = [
            (Metasearcher, "search", "client.search", call, None),
            (Metasearcher, "search_stream", "client.search_stream", generator, None),
            (Metasearcher, "refresh", "client.refresh", call, None),
            (DiscoveryService, "summaries", "selection.summaries", call, None),
            (selector_class, "select", "selection.select", call, None),
            # client.py binds the name at import, so both homes are patched.
            (cache_keys, "query_cache_key", "cache.key", call, None),
            (client_module, "query_cache_key", "cache.key", call, None),
            (QueryResultCache, "lookup", "cache.lookup", call, _note_lookup),
            (QueryResultCache, "store", "cache.store", call, _note_store),
            (ClientTranslator, "translate", "translation.translate", call, _note_translate),
            (QueryDispatcher, "dispatch", "federation.dispatch", call, note_dispatch),
            (
                QueryDispatcher,
                "dispatch_stream",
                "federation.dispatch_stream",
                generator,
                note_dispatch,
            ),
            (StartsClient, "query_with_record", "transport.client", call, None),
            (
                StartsClient,
                "query_with_record_async",
                "transport.client",
                coroutine,
                None,
            ),
            (SimulatedInternet, "perform", "transport.server", call, _note_perform),
            (
                SimulatedInternet,
                "perform_async",
                "transport.server",
                coroutine,
                _note_perform,
            ),
            # The realtime network's only await: from the sleep call to
            # the coroutine's resumption is time spent waiting (the
            # host's latency plus any event-loop queueing), not codec.
            (asyncio, "sleep", "transport.wait", coroutine, None),
            (Resource, "search", "source.resource", call, None),
            (StartsSource, "search", "source.search", call, _note_source_search),
            (SearchEngine, "search", "engine.search", call, None),
            (merger_class, "merge", "merging.merge", call, _note_merge),
            (StreamingMerge, "feed", "merging.feed", call, None),
            (StreamingMerge, "merged", "merging.merged", call, None),
            (StartsClient, "fetch_resource", "discovery.fetch_resource", call, None),
            (StartsClient, "fetch_metadata", "discovery.fetch_metadata", call, None),
            (StartsClient, "fetch_summary", "discovery.fetch_summary", call, None),
            (
                StartsClient,
                "fetch_sample_results",
                "discovery.fetch_sample",
                call,
                None,
            ),
        ]
        self._originals: list[tuple[object, str, object]] = []

    def snapshot(self) -> list[object]:
        """The raw attribute behind every target, for identity checks."""
        return [vars(owner).get(attribute, _MISSING) for owner, attribute, *_ in self.targets]

    def install(self) -> None:
        if self._originals:
            raise RuntimeError("layer shim is already installed")
        for owner, attribute, name, shape, annotate in self.targets:
            original = vars(owner).get(attribute, _MISSING)
            self._originals.append((owner, attribute, original))
            setattr(
                owner,
                attribute,
                shape(self.recorder, name, getattr(owner, attribute), annotate),
            )

    def remove(self) -> None:
        while self._originals:
            owner, attribute, original = self._originals.pop()
            if original is _MISSING:
                delattr(owner, attribute)
            else:
                setattr(owner, attribute, original)

    def __enter__(self) -> "LayerShim":
        self.install()
        return self

    def __exit__(self, *exc_info) -> None:
        self.remove()
