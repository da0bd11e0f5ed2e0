"""The query-result cache: a bounded LRU with TTLs.

Keys come from :func:`repro.cache.keys.query_cache_key` (canonical
filter/ranking ASTs + the selected source set + the answer spec),
values are whole merged search results, and reads come back in one of
two states:

* **fresh** — serve it, the wire is never touched;
* **miss** — absent, or past its TTL (the entry is dropped): run the
  query for real and store the outcome.

Nothing is invalidated by hand.  The metasearcher's key binds every
selected source at its harvest generation (``source_id@generation``),
so once discovery re-harvests or forgets a source, no search builds
that key again: the old entry simply misses and ages out of the LRU.
The clock is injectable (milliseconds, monotonic by default) so tests
and simulations control time; everything is thread safe.

The cache keeps no tallies of its own: what one search decided is one
``cache`` event on its trace (a miss carries the ``evictions`` its
store forced) and the ``cache_hits`` of its query-log record.
"""

from __future__ import annotations

import threading
import time
from collections import OrderedDict

from repro.cache.core import FRESH, MISS

__all__ = ["QueryResultCache"]


def _monotonic_ms() -> float:
    return time.monotonic() * 1000.0


class QueryResultCache:
    """A thread-safe bounded result cache with a freshness lifetime.

    Args:
        capacity: maximum cached results; the least recently used entry
            is evicted when a store would exceed it.
        ttl_ms: freshness lifetime of an entry, ``> 0`` (``None`` =
            forever); an entry past it is a miss.
        clock: a zero-argument callable returning milliseconds,
            injectable for tests.
    """

    def __init__(
        self,
        capacity: int = 256,
        ttl_ms: float | None = 300_000.0,
        clock=None,
    ) -> None:
        if capacity < 1:
            raise ValueError("capacity must be >= 1")
        if ttl_ms is not None and ttl_ms <= 0:
            raise ValueError("ttl_ms must be > 0 (or None: never expire)")
        self.capacity = capacity
        self.ttl_ms = ttl_ms
        self._clock = clock or _monotonic_ms
        #: key → (value, stored_at_ms), least recently used first.
        self._entries: OrderedDict[str, tuple[object, float]] = OrderedDict()
        self._lock = threading.Lock()

    # -- the read/write surface -------------------------------------------

    def lookup(self, key: str) -> tuple[object | None, str]:
        """``(value, state)`` with state ``fresh`` or ``miss``.

        A fresh read promotes the entry to most recently used; an entry
        past its TTL is dropped, and the read is a miss.
        """
        now = self._clock()
        with self._lock:
            entry = self._entries.get(key)
            if entry is None:
                return None, MISS
            if self.ttl_ms is None or now <= entry[1] + self.ttl_ms:
                self._entries.move_to_end(key)
                return entry[0], FRESH
            del self._entries[key]
            return None, MISS

    def store(self, key: str, value: object) -> int:
        """Cache ``value``; returns the number of evictions it forced.

        Expired entries at the cold end are dropped first.  Entries run
        in last-touch order and none was stored after its last touch, so
        every entry in front of an expired one that was never read again
        has expired too: the sweep stops at the first live entry.
        """
        evicted = 0
        now = self._clock()
        with self._lock:
            self._entries[key] = (value, now)
            self._entries.move_to_end(key)
            if self.ttl_ms is not None:
                while now > next(iter(self._entries.values()))[1] + self.ttl_ms:
                    self._entries.popitem(last=False)
            while len(self._entries) > self.capacity:
                self._entries.popitem(last=False)
                evicted += 1
        return evicted

    def clear(self) -> None:
        with self._lock:
            self._entries.clear()

    # -- introspection -----------------------------------------------------

    def __len__(self) -> int:
        with self._lock:
            return len(self._entries)

    def __contains__(self, key: str) -> bool:
        with self._lock:
            return key in self._entries
