"""CachePolicy: caching on, or the paper's pipeline exactly as §4 has it.

The one thing callers vary.  The default turns on the result cache,
the list of dead sources and their purge hooks; :meth:`CachePolicy.disabled`
makes all of it dead code (no key computed, no counter ticked, outputs
byte-identical to the uncached pipeline).  Capacities, TTLs and
thresholds are the defaults of the classes that use them — to tune
one, construct a :class:`~repro.cache.QueryResultCache` or
:class:`~repro.cache.NegativeSourceCache` and assign it to the searcher.
"""

from __future__ import annotations

from dataclasses import dataclass

__all__ = ["CachePolicy"]


@dataclass(frozen=True)
class CachePolicy:
    """Whether a :class:`~repro.metasearch.Metasearcher` caches at all."""

    enabled: bool = True

    @classmethod
    def disabled(cls) -> "CachePolicy":
        """The paper-faithful configuration: every search on the wire."""
        return cls(enabled=False)
