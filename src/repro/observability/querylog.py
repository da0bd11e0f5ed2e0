"""The wide-event query log: one canonical record per search.

Metrics aggregate away the question "what exactly happened to *that*
query?"; traces answer it one operation at a time but are too heavy to
keep for every request.  The wide-event log is the middle layer modern
observability practice settles on: a single flat, richly-attributed
record per top-level operation — query shape, selected sources,
per-phase latency, cache/retry/hedge tallies, the trace id to
pivot into the full trace — ring-buffered in memory and exportable as
NDJSON for any log pipeline.

:class:`~repro.metasearch.client.Metasearcher` emits one
:class:`QueryLogRecord` per ``search``/``search_stream`` call on every
exit path (wire answers, cache hits, stream terminations and errors
alike) into the process-wide :class:`QueryLog`
(:func:`get_query_log`); ``MetasearchResult.explain()`` shows a
search's record beside its trace.
"""

from __future__ import annotations

import json
import threading
import time
from collections import deque
from dataclasses import dataclass, field as dataclass_field

__all__ = [
    "QueryLog",
    "QueryLogRecord",
    "get_query_log",
    "set_query_log",
]


@dataclass(slots=True)
class QueryLogRecord:
    """Everything one search was, did, and cost — one flat event.

    ``outcome`` is how the answer was produced: ``wire`` (a full query
    round), ``hit`` (served from the result cache), ``stream`` (a
    streaming round), ``abandoned`` (a stream its consumer closed before
    the final emission) or ``error`` (the search raised).
    ``trace_id`` pivots into the matching trace.
    """

    terms: str
    outcome: str
    total_ms: float
    trace_id: str = ""
    selected_sources: tuple[str, ...] = ()
    phase_ms: dict[str, float] = dataclass_field(default_factory=dict)
    n_results: int = 0
    sources_ok: int = 0
    sources_failed: int = 0
    sources_skipped: int = 0
    requests: int = 0
    retries: int = 0
    hedges: int = 0
    timeouts: int = 0
    failures: int = 0
    cache_hits: int = 0
    negative_skips: int = 0
    cost: float = 0.0
    terminated_early: bool = False
    error: str = ""
    unix_ms: float = 0.0

    def to_json(self) -> dict:
        """The record as one JSON-ready object (phase times rounded)."""
        return {
            "kind": "query",
            "terms": self.terms,
            "outcome": self.outcome,
            "total_ms": round(self.total_ms, 3),
            "trace_id": self.trace_id,
            "selected_sources": list(self.selected_sources),
            "phase_ms": {
                phase: round(duration, 3)
                for phase, duration in sorted(self.phase_ms.items())
            },
            "n_results": self.n_results,
            "sources_ok": self.sources_ok,
            "sources_failed": self.sources_failed,
            "sources_skipped": self.sources_skipped,
            "requests": self.requests,
            "retries": self.retries,
            "hedges": self.hedges,
            "timeouts": self.timeouts,
            "failures": self.failures,
            "cache_hits": self.cache_hits,
            "negative_skips": self.negative_skips,
            "cost": round(self.cost, 4),
            "terminated_early": self.terminated_early,
            "error": self.error,
            "unix_ms": round(self.unix_ms, 1),
        }


class QueryLog:
    """A thread-safe ring buffer of :class:`QueryLogRecord`\\ s.

    Args:
        capacity: records kept; the oldest fall off the ring.
        slow_ms: threshold above which a record counts as a slow query
            (``None`` disables the classification).
        enabled: a disabled log drops records at the door — the
            instrumentation points stay in place and cost one attribute
            check.
    """

    def __init__(
        self,
        capacity: int = 4096,
        slow_ms: float | None = None,
        enabled: bool = True,
    ) -> None:
        if capacity < 1:
            raise ValueError("capacity must be >= 1")
        self.capacity = capacity
        self.slow_ms = slow_ms
        self.enabled = enabled
        self._lock = threading.Lock()
        self._records: deque[QueryLogRecord] = deque(maxlen=capacity)
        self.total_recorded = 0
        self.total_slow = 0

    @classmethod
    def disabled(cls) -> "QueryLog":
        """A log that records nothing."""
        return cls(enabled=False)

    def record(self, record: QueryLogRecord) -> None:
        if not self.enabled:
            return
        if not record.unix_ms:
            record.unix_ms = time.time() * 1000.0
        with self._lock:
            self._records.append(record)
            self.total_recorded += 1
            if self.slow_ms is not None and record.total_ms >= self.slow_ms:
                self.total_slow += 1

    def records(
        self, outcome: str | None = None, trace_id: str | None = None
    ) -> list[QueryLogRecord]:
        """Buffered records oldest-first, optionally only those of one
        outcome and / or one trace."""
        with self._lock:
            snapshot = list(self._records)
        return [
            record
            for record in snapshot
            if outcome in (None, record.outcome) and trace_id in (None, record.trace_id)
        ]

    def write_ndjson(self, path: str) -> int:
        """Write the buffer to ``path``; returns the record count."""
        records = self.records()
        with open(path, "w", encoding="utf-8") as handle:
            for record in records:
                handle.write(json.dumps(record.to_json(), sort_keys=True) + "\n")
        return len(records)

    def clear(self) -> None:
        with self._lock:
            self._records.clear()

    def __len__(self) -> int:
        with self._lock:
            return len(self._records)


_default_query_log = QueryLog()
_query_log_lock = threading.Lock()


def get_query_log() -> QueryLog:
    """The process-wide query log the metasearcher records to."""
    return _default_query_log


def set_query_log(log: QueryLog) -> QueryLog:
    """Swap the process-wide query log (tests, embedders); returns it."""
    global _default_query_log
    with _query_log_lock:
        _default_query_log = log
    return log
