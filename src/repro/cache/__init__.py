"""What the STARTS metasearcher remembers between queries.

Sources are slow and may charge (§3.3), and MBasic-1 exports
``DateChanged`` / ``DateExpires`` so a client knows when harvested
knowledge goes bad (§4.3.1).  Three small things follow from that:

* :class:`QueryResultCache` + :func:`query_cache_key` — a bounded
  LRU+TTL cache of whole merged results keyed on the *canonical* query
  (order-insensitive where order carries no meaning), read as
  :data:`FRESH` or :data:`MISS` (an expired entry is a miss); the
  metasearcher's key binds each source's harvest generation, so a
  re-harvested or forgotten source's entries miss;
* :class:`NegativeSourceCache` — the list of dead sources: remembers
  unreachable ones so the federation layer skips them instead of
  re-probing every search, until the hold's TTL passes or the source
  answers;
* :class:`SummaryTtlPolicy` — the staleness rule discovery applies to
  harvested metadata (``DateExpires`` first, a ``DateChanged``
  heuristic otherwise).

:class:`CachePolicy` is the one switch: ``CachePolicy.disabled()``
restores the paper-faithful uncached pipeline byte-for-byte.
"""

from repro.cache.core import FRESH, MISS
from repro.cache.keys import canonical_expression, canonical_text, query_cache_key
from repro.cache.negative import NegativeEntry, NegativeSourceCache
from repro.cache.policy import CachePolicy
from repro.cache.results import QueryResultCache
from repro.cache.summaries import SummaryTtlPolicy, parse_protocol_date

__all__ = [
    "FRESH",
    "MISS",
    "canonical_expression",
    "canonical_text",
    "query_cache_key",
    "NegativeEntry",
    "NegativeSourceCache",
    "CachePolicy",
    "QueryResultCache",
    "SummaryTtlPolicy",
    "parse_protocol_date",
]
