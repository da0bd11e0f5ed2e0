"""CachePolicy: one switchboard for every caching tier.

The paper-faithful experiments need the pipeline exactly as §4 defines
it — every search on the wire — while the production path wants every
tier on.  A single frozen :class:`CachePolicy` makes both spellings
trivial: the default enables everything with sane bounds, and
:meth:`CachePolicy.disabled` turns the whole subsystem into dead code
(no key computed, no counter ticked, outputs byte-identical to the
uncached pipeline).
"""

from __future__ import annotations

from dataclasses import dataclass, field as dataclass_field

from repro.cache.summaries import SummaryTtlPolicy

__all__ = ["CachePolicy"]


@dataclass(frozen=True)
class CachePolicy:
    """Configuration of the metasearch caching subsystem.

    Attributes:
        enabled: master switch; ``False`` bypasses every tier.
        result_capacity: maximum cached query results.
        result_ttl_ms: result freshness lifetime; ``None`` never
            expires (only LRU pressure evicts).
        stale_grace_ms: window past expiry in which a stale result is
            still served while a background refresh runs; ``0``
            disables stale-while-revalidate (expired = miss).
        revalidate_in_background: schedule the refresh of a
            stale-served entry through the executor's ``submit`` hook
            (the :class:`~repro.federation.AsyncExecutor` refreshes on
            a background thread; the serial executor revalidates
            inline, keeping single-threaded runs deterministic).
        result_max_documents: optional bound on the *sum* of cached
            result sizes, in documents.
        negative_ttl_ms: how long an unreachable source is skipped
            before it earns a new probe.
        negative_failure_threshold: failed rounds before a source is
            negative-cached.
        summary_ttl: staleness policy for harvested metadata and
            content summaries (per-source TTLs from MBasic-1 dates).
    """

    enabled: bool = True
    result_capacity: int = 256
    result_ttl_ms: float | None = 300_000.0
    stale_grace_ms: float = 600_000.0
    revalidate_in_background: bool = True
    result_max_documents: int | None = None
    negative_ttl_ms: float = 30_000.0
    negative_failure_threshold: int = 1
    summary_ttl: SummaryTtlPolicy = dataclass_field(default_factory=SummaryTtlPolicy)

    @classmethod
    def disabled(cls) -> "CachePolicy":
        """The paper-faithful configuration: no caching anywhere."""
        return cls(enabled=False)
