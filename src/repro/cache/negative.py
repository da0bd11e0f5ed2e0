"""Negative caching of unreachable sources.

§3.3's dead and hanging sources are the most expensive kind of cache
miss: every probe costs a full timeout budget (deadline × retries ×
backoff) and returns nothing.  The federation layer already bounds one
search's patience per source; the :class:`NegativeSourceCache`
remembers the verdict *across* searches, so a source that just burned
its retry budget is skipped — on record, as a ``SKIPPED``
:class:`~repro.federation.SourceOutcome` — instead of re-probed, until
its entry expires and the source earns a fresh probe.

The cache is deliberately forgiving: entries expire after
``ttl_ms`` (a dead source gets re-probed eventually), a success wipes
the slate, and a ``failure_threshold`` above one tolerates isolated
flakes before declaring a source down.  Those are the only two ways a
hold ends: discovery does not reach in, so a re-harvest leaves a hold
in place, and the entry of a forgotten source is inert, because no
catalog routes a search to it.
"""

from __future__ import annotations

import threading
import time
from dataclasses import dataclass

__all__ = ["NegativeEntry", "NegativeSourceCache"]


@dataclass
class NegativeEntry:
    """The remembered failure state of one source."""

    source_id: str
    failures: int
    last_status: str
    last_error: str | None
    down_until_ms: float | None  # None until the threshold is reached


class NegativeSourceCache:
    """Remembers which sources are down, and for how long to believe it.

    Args:
        ttl_ms: how long a source stays negative-cached after reaching
            the failure threshold (wall-clock; clock injectable).
        failure_threshold: consecutive failed *searches* (not wire
            attempts — the federation layer's retries happen below
            this) before the source is declared down.
    """

    def __init__(
        self, ttl_ms: float = 30_000.0, failure_threshold: int = 1, clock=None
    ) -> None:
        if ttl_ms <= 0:
            raise ValueError("ttl_ms must be > 0")
        if failure_threshold < 1:
            raise ValueError("failure_threshold must be >= 1")
        self.ttl_ms = ttl_ms
        self.failure_threshold = failure_threshold
        self._clock = clock or (lambda: time.monotonic() * 1000.0)
        self._entries: dict[str, NegativeEntry] = {}
        self._lock = threading.Lock()

    def record_failure(
        self, source_id: str, status: str = "error", error: str | None = None
    ) -> NegativeEntry:
        """One more failed round for ``source_id``; returns its entry.

        A failure after an expired hold starts a clean count: the source
        earned its fresh probe, and this is the probe's verdict.
        """
        now = self._clock()
        with self._lock:
            entry = self._entries.get(source_id)
            if entry is None or (
                entry.down_until_ms is not None and now >= entry.down_until_ms
            ):
                entry = NegativeEntry(source_id, 0, status, error, None)
                self._entries[source_id] = entry
            entry.failures += 1
            entry.last_status = status
            entry.last_error = error
            if entry.failures >= self.failure_threshold:
                entry.down_until_ms = now + self.ttl_ms
        return entry

    def record_success(self, source_id: str) -> None:
        """A good answer clears the source's record entirely."""
        with self._lock:
            self._entries.pop(source_id, None)

    def skip_reason(self, source_id: str) -> str | None:
        """Why ``source_id`` should be skipped right now, or ``None``.

        A query, changing nothing: a source whose hold has expired is not
        skipped, and its next verdict (:meth:`record_failure` or
        :meth:`record_success`) replaces the entry.  The skip itself is
        the caller's to record: the metasearcher makes it a ``SKIPPED``
        outcome, a ``negative-skip`` ``cache`` event and a count in the
        query-log record.
        """
        now = self._clock()
        with self._lock:
            entry = self._entries.get(source_id)
            if (
                entry is None
                or entry.down_until_ms is None
                or now >= entry.down_until_ms
            ):
                return None
            detail = f" ({entry.last_error})" if entry.last_error else ""
            return (
                f"negative-cached: {entry.last_status} on "
                f"{entry.failures} recent round(s){detail}"
            )

    def down_sources(self) -> list[str]:
        """Sources currently held down (expired entries excluded)."""
        now = self._clock()
        with self._lock:
            return sorted(
                source_id
                for source_id, entry in self._entries.items()
                if entry.down_until_ms is not None and now < entry.down_until_ms
            )

    def __len__(self) -> int:
        with self._lock:
            return len(self._entries)
