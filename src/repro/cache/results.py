"""The query-result cache: a bounded LRU with TTLs and stale-while-revalidate.

Keys come from :func:`repro.cache.keys.query_cache_key` (canonical
filter/ranking ASTs + the selected source set + the answer spec),
values are whole merged search results, and reads distinguish three
states:

* **fresh** — serve it, the wire is never touched;
* **stale** — the TTL has passed but the entry is inside the
  ``stale_grace_ms`` window: serve the old answer *immediately* and
  let the caller schedule a background refresh (single-flight — only
  one revalidation per key runs at a time);
* **miss** — run the query for real and store the outcome.

Entries are tagged with every source id that contributed, so
forgetting a source (or learning it changed) can surgically invalidate
exactly the results it took part in.  The clock is injectable
(milliseconds, monotonic by default) so tests and simulations control
time; everything is thread safe.

The cache reports to the process-wide metrics registry (the
``cache_*`` families, ``tier="result"``); what one search read and
stored is on its trace (``result.trace.cache``).
"""

from __future__ import annotations

import threading
import time
from collections import OrderedDict

from repro.cache.core import FRESH, MISS, STALE
from repro.observability.metrics import get_registry

__all__ = ["QueryResultCache"]

_TIER = "result"


def _monotonic_ms() -> float:
    return time.monotonic() * 1000.0


class QueryResultCache:
    """A thread-safe bounded result cache with stale-while-revalidate.

    Args:
        capacity: maximum cached results; the least recently used entry
            is evicted when a store would exceed it.
        ttl_ms: freshness lifetime of an entry (``None`` = forever).
        stale_grace_ms: how far past expiry an entry may still be
            served while a revalidation runs; ``0`` makes expired a miss.
        clock: a zero-argument callable returning milliseconds,
            injectable for tests.
    """

    def __init__(
        self,
        capacity: int = 256,
        ttl_ms: float | None = 300_000.0,
        stale_grace_ms: float = 600_000.0,
        clock=None,
    ) -> None:
        if capacity < 1:
            raise ValueError("capacity must be >= 1")
        self.capacity = capacity
        self.ttl_ms = ttl_ms
        self.stale_grace_ms = stale_grace_ms
        self._clock = clock or _monotonic_ms
        #: key → (value, stored_at_ms, source ids), least recently used first.
        self._entries: OrderedDict[str, tuple[object, float, frozenset[str]]] = (
            OrderedDict()
        )
        self._revalidating: set[str] = set()
        self._lock = threading.Lock()

    # -- the read/write surface -------------------------------------------

    def lookup(self, key: str) -> tuple[object | None, str]:
        """``(value, state)`` with state ``fresh`` / ``stale`` / ``miss``.

        A fresh read promotes the entry to most recently used; a stale
        one returns the value and keeps the entry for its revalidation;
        an entry expired beyond the grace window is dropped.
        """
        now = self._clock()
        value, state, live = None, MISS, None
        with self._lock:
            entry = self._entries.get(key)
            if entry is not None:
                state = self._state_at(entry[1], now)
                if state == MISS:
                    del self._entries[key]
                    live = len(self._entries)
                else:
                    value = entry[0]
                    if state == FRESH:
                        self._entries.move_to_end(key)
        get_registry().counter(
            "cache_reads_total",
            "Cache lookups per tier and read result (fresh/stale/miss).",
            labels=("tier", "result"),
        ).labels(tier=_TIER, result=state).inc()
        if live is not None:
            self._report_entries(live)
        return value, state

    def _state_at(self, stored_at_ms: float, now_ms: float) -> str:
        if self.ttl_ms is None or now_ms <= stored_at_ms + self.ttl_ms:
            return FRESH
        if now_ms <= stored_at_ms + self.ttl_ms + self.stale_grace_ms:
            return STALE
        return MISS

    def store(
        self,
        key: str,
        value: object,
        source_ids: tuple[str, ...] | list[str] = (),
    ) -> int:
        """Cache ``value``; returns the number of evictions it forced."""
        tags = frozenset(source_ids)
        evicted = 0
        with self._lock:
            self._entries[key] = (value, self._clock(), tags)
            self._entries.move_to_end(key)
            while len(self._entries) > self.capacity:
                self._entries.popitem(last=False)
                evicted += 1
            live = len(self._entries)
        registry = get_registry()
        registry.counter(
            "cache_stores_total",
            "Entries written per cache tier.",
            labels=("tier",),
        ).labels(tier=_TIER).inc()
        if evicted:
            registry.counter(
                "cache_evictions_total",
                "LRU evictions forced by capacity or size bounds, per tier.",
                labels=("tier",),
            ).labels(tier=_TIER).inc(evicted)
        self._report_entries(live)
        return evicted

    def invalidate_source(self, source_id: str) -> int:
        """Drop every cached result the source contributed to."""
        with self._lock:
            doomed = [
                key for key, entry in self._entries.items() if source_id in entry[2]
            ]
            for key in doomed:
                del self._entries[key]
            live = len(self._entries)
        if doomed:
            self._report_entries(live)
        return len(doomed)

    def clear(self) -> None:
        with self._lock:
            self._entries.clear()
        self._report_entries(0)

    @staticmethod
    def _report_entries(live: int) -> None:
        get_registry().gauge(
            "cache_entries",
            "Live entries per cache tier.",
            labels=("tier",),
        ).labels(tier=_TIER).set(live)

    # -- single-flight revalidation ---------------------------------------

    def begin_revalidation(self, key: str) -> bool:
        """Claim the revalidation of ``key``; False if already claimed."""
        with self._lock:
            if key in self._revalidating:
                return False
            self._revalidating.add(key)
            return True

    def finish_revalidation(self, key: str) -> None:
        with self._lock:
            self._revalidating.discard(key)

    # -- introspection -----------------------------------------------------

    def __len__(self) -> int:
        with self._lock:
            return len(self._entries)

    def __contains__(self, key: str) -> bool:
        with self._lock:
            return key in self._entries
