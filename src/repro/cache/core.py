"""The two states a result-cache read can come back in."""

__all__ = ["FRESH", "MISS"]

#: Inside its TTL: served, and promoted to most recently used.
FRESH = "fresh"
#: Absent, or past its TTL (the entry is dropped).
MISS = "miss"
