"""Staleness-aware TTLs for cached source metadata and summaries.

MBasic-1 exports exactly the attributes a metasearcher needs to know
*when* its cached knowledge of a source goes bad: ``DateExpires`` is an
explicit promise, and ``DateChanged`` is an update hint — a source that
last changed two years ago will not suddenly churn daily, while one
that changed yesterday might.  :class:`SummaryTtlPolicy` turns those
into a per-source TTL instead of one global staleness knob:

1. ``DateExpires``, when present and well-formed, wins outright: the
   entry is stale exactly when the clock passes it (the behaviour the
   discovery layer always had).
2. Otherwise, with a ``DateChanged`` hint, the TTL is *heuristic
   freshness* (the HTTP rule of thumb): a fraction of the entry's age
   at harvest time — ``ttl_days = fraction × (fetched_on −
   date_changed)`` — clamped to ``[min_ttl_days, max_ttl_days]``.
   A clock-skewed **future** ``DateChanged`` is treated as "changed
   just now" (age zero → minimum TTL), never as a licence to cache
   forever.
3. With no usable date hints at all the entry never goes stale on its
   own (``DiscoveryService.forget()`` still forces a re-harvest).

All dates are the protocol's day-granular ``YYYY-MM-DD`` strings;
malformed values are ignored rather than trusted.
"""

from __future__ import annotations

import datetime
from dataclasses import dataclass

from repro.starts.metadata import SMetaAttributes

__all__ = ["parse_protocol_date", "SummaryTtlPolicy"]


def parse_protocol_date(text: str | None) -> datetime.date | None:
    """A ``YYYY-MM-DD`` string as a date; None when absent or malformed."""
    if not text:
        return None
    try:
        return datetime.date.fromisoformat(text.strip())
    except ValueError:
        return None


@dataclass(frozen=True, slots=True)
class SummaryTtlPolicy:
    """Derives per-source cache TTLs from MBasic-1 date attributes.

    Attributes:
        heuristic_fraction: how much of the age-at-harvest becomes TTL
            when only ``DateChanged`` is known (0.1 mirrors the HTTP
            heuristic-freshness convention).
        min_ttl_days: floor on any heuristic TTL; ``0`` means an entry
            can go stale the very next day.
        max_ttl_days: cap on any heuristic TTL, so an ancient source is
            still re-checked occasionally.
    """

    heuristic_fraction: float = 0.1
    min_ttl_days: int = 1
    max_ttl_days: int = 60

    def __post_init__(self) -> None:
        if self.heuristic_fraction < 0:
            raise ValueError("heuristic_fraction must be >= 0")
        if self.min_ttl_days < 0 or self.max_ttl_days < self.min_ttl_days:
            raise ValueError("need 0 <= min_ttl_days <= max_ttl_days")

    def ttl_days(self, metadata: SMetaAttributes, fetched_on: str) -> int | None:
        """The heuristic TTL for an entry harvested on ``fetched_on``.

        ``None`` means "no usable hint — no heuristic expiry".
        """
        changed = parse_protocol_date(metadata.date_changed)
        fetched = parse_protocol_date(fetched_on)
        if changed is None or fetched is None:
            return None
        age_days = max((fetched - changed).days, 0)  # future date ⇒ age 0
        ttl = int(age_days * self.heuristic_fraction)
        return min(max(ttl, self.min_ttl_days), self.max_ttl_days)

    def is_stale(
        self, metadata: SMetaAttributes, fetched_on: str | None, clock: str
    ) -> bool:
        """Should a cached entry for this source be re-harvested?

        ``DateExpires`` decides when present (day-granular string
        comparison, matching the discovery layer's historic rule);
        otherwise the heuristic TTL against ``fetched_on`` applies.  An
        entry with no harvest date on record and no explicit expiry is
        never stale — there is nothing to measure its age against.
        """
        expires = metadata.date_expires
        if expires:
            return expires < clock
        if fetched_on is None:
            return False
        ttl = self.ttl_days(metadata, fetched_on)
        if ttl is None:
            return False
        fetched = parse_protocol_date(fetched_on)
        now = parse_protocol_date(clock)
        if fetched is None or now is None:
            return False
        return now > fetched + datetime.timedelta(days=ttl)
