"""The three states a result-cache read can come back in."""

__all__ = ["FRESH", "STALE", "MISS"]

#: Inside its TTL: served, and promoted to most recently used.
FRESH = "fresh"
#: Past its TTL but inside the grace window: served while a refresh runs.
STALE = "stale"
#: Absent, or expired beyond the grace window (the entry is dropped).
MISS = "miss"
