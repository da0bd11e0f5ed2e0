"""Discovery and metadata harvesting (§3.4's periodic tasks).

A metasearcher must "extract the list of sources from the resources
periodically" and "extract metadata and content summaries from the
sources periodically".  :class:`DiscoveryService` does both over the
transport layer, caching everything it fetches and honouring the
``DateExpires`` metadata attribute so stale entries are re-fetched.

Searches keep running while discovery re-harvests, so what discovery
knows is published as a value: an immutable :class:`Catalog` of the
known-source records and the summary index built from their summaries.
A refresh or :meth:`DiscoveryService.forget` that changes anything
builds the next catalog and swaps one reference, under a writer lock;
a search round reads :attr:`DiscoveryService.catalog` once and never
sees a half-applied harvest.
"""

from __future__ import annotations

import threading
from collections.abc import Mapping
from dataclasses import dataclass, field as dataclass_field
from functools import cached_property
from types import MappingProxyType

from repro.cache.summaries import SummaryTtlPolicy
from repro.metasearch.summary_index import SummaryIndex
from repro.metasearch.translation import translation_target
from repro.source.sample import SampleResults
from repro.starts.errors import SoifSyntaxError
from repro.starts.metadata import SContentSummary, SMetaAttributes
from repro.transport.client import StartsClient
from repro.transport.network import TransportError

__all__ = ["Catalog", "KnownSource", "DiscoveryService"]


@dataclass
class KnownSource:
    """Everything a metasearcher knows about one discovered source.

    ``generation`` numbers the harvest that produced this record: no two
    harvests of one :class:`DiscoveryService` share a number, so a
    result-cache key that binds ``source_id@generation`` misses once the
    source is re-harvested or forgotten.
    """

    source_id: str
    metadata: SMetaAttributes
    summary: SContentSummary | None = None
    sample_results: SampleResults | None = None
    resource_url: str | None = None
    generation: int = 0

    @property
    def query_url(self) -> str:
        return self.metadata.linkage

    @property
    def num_docs(self) -> int:
        return self.summary.num_docs if self.summary is not None else 0

    @cached_property
    def translation_target(self):
        """:func:`translation_target` of ``metadata``, built by the first
        query routed here (≈ 17 kB: too much to build for every source
        of a large harvest) and kept until a re-harvest replaces this
        object, metadata and all."""
        return translation_target(self.metadata)


class Catalog:
    """One published state of discovery: never changed once built.

    ``sources`` maps each known source id to its record, and ``index``
    is the :class:`SummaryIndex` built once from their summaries, so
    the two always agree.  The catalog takes ownership of the dict it
    is given and exposes it read-only.
    """

    __slots__ = ("sources", "index")

    def __init__(self, sources: dict[str, KnownSource]) -> None:
        self.sources: Mapping[str, KnownSource] = MappingProxyType(sources)
        self.index = SummaryIndex.from_summaries(
            {
                source_id: known.summary
                for source_id, known in self.sources.items()
                if known.summary is not None
            }
        )

    def known_sources(self) -> list[KnownSource]:
        return [self.sources[source_id] for source_id in sorted(self.sources)]


#: What one source may do to its own harvest without aborting the round.
_HARVEST_FAILURES = (TransportError, SoifSyntaxError)


@dataclass
class DiscoveryService:
    """Harvests resources → sources → metadata/summaries/samples.

    Attributes:
        client: the transport client.
        clock: a monotonically advancing date string (``YYYY-MM-DD``);
            entries whose ``DateExpires`` precedes the clock are
            considered stale and re-fetched on the next refresh.
        ttl_policy: the staleness rule: ``DateExpires`` when the source
            gave one, else a per-source heuristic TTL derived from
            ``DateChanged`` and the harvest date (see
            :class:`~repro.cache.SummaryTtlPolicy`).
        catalog: the published :class:`Catalog`; a search reads it once
            per round.
    """

    client: StartsClient
    clock: str = "1996-08-01"
    ttl_policy: SummaryTtlPolicy = SummaryTtlPolicy()
    #: source_id → metadata URL for sources skipped on the last refresh
    #: because their host was unreachable or their metadata malformed.
    unreachable: dict[str, str] = dataclass_field(default_factory=dict)
    #: source_id → clock date of the last successful harvest; feeds the
    #: heuristic TTL ("age at harvest") of :attr:`ttl_policy`.
    fetched_on: dict[str, str] = dataclass_field(default_factory=dict)
    catalog: Catalog = dataclass_field(
        default_factory=lambda: Catalog({}), init=False
    )
    #: Serialises the writers (refresh, forget); readers take no lock.
    _writer: threading.Lock = dataclass_field(
        default_factory=threading.Lock, init=False, repr=False, compare=False
    )
    _harvests: int = dataclass_field(default=0, init=False)

    def refresh_resource(
        self, resource_url: str, client: StartsClient | None = None
    ) -> list[KnownSource]:
        """Fetch a resource's source list and harvest each new source.

        Returns the known sources belonging to this resource.  A source
        whose metadata cannot be fetched (dead or flaky host) or does not
        decode (:class:`SoifSyntaxError`) is skipped for this round — a
        stale entry from an earlier harvest is kept rather than dropped,
        and the source id is recorded in :attr:`unreachable` so callers
        can see what was missed.  A refresh that harvested anything
        publishes the next :attr:`catalog`; one that found nothing stale
        publishes nothing.

        ``client`` fetches this one harvest instead of :attr:`client` —
        how a traced refresh routes its fetch events to the caller's
        tracer without leaving that tracer on the shared client.
        """
        client = client or self.client
        with self._writer:
            resource = client.fetch_resource(resource_url)
            sources = dict(self.catalog.sources)
            harvested: list[KnownSource] = []
            changed = False
            for source_id, metadata_url in resource.source_list:
                known = sources.get(source_id)
                if known is None or self._is_stale(known):
                    try:
                        known = self._harvest(
                            client, source_id, metadata_url, resource_url
                        )
                    except _HARVEST_FAILURES:
                        self.unreachable[source_id] = metadata_url
                        if known is None:
                            continue
                    else:
                        self._harvests += 1
                        known.generation = self._harvests
                        self.unreachable.pop(source_id, None)
                        self.fetched_on[source_id] = self.clock
                        sources[source_id] = known
                        changed = True
                harvested.append(known)
            if changed:
                self.catalog = Catalog(sources)
        return harvested

    def _is_stale(self, known: KnownSource) -> bool:
        return self.ttl_policy.is_stale(
            known.metadata, self.fetched_on.get(known.source_id), self.clock
        )

    @staticmethod
    def _harvest(
        client: StartsClient, source_id: str, metadata_url: str, resource_url: str
    ) -> KnownSource:
        metadata = client.fetch_metadata(metadata_url)
        known = KnownSource(source_id, metadata, resource_url=resource_url)
        if metadata.content_summary_linkage:
            try:
                known.summary = client.fetch_summary(
                    metadata.content_summary_linkage
                )
            except _HARVEST_FAILURES:
                known.summary = None
        if metadata.sample_database_results:
            try:
                known.sample_results = client.fetch_sample_results(
                    metadata.sample_database_results
                )
            except _HARVEST_FAILURES:
                known.sample_results = None
        return known

    # -- lookups on the published catalog ------------------------------------

    def known_sources(self) -> list[KnownSource]:
        return self.catalog.known_sources()

    def source(self, source_id: str) -> KnownSource:
        return self.catalog.sources[source_id]

    def summaries(self) -> dict[str, SContentSummary]:
        return {
            source_id: known.summary
            for source_id, known in self.catalog.sources.items()
            if known.summary is not None
        }

    def summary_index(self) -> SummaryIndex:
        """The published catalog's summary index, built with it."""
        return self.catalog.index

    # -- forced re-harvest ---------------------------------------------------

    def forget(self, source_id: str) -> None:
        """Drop a source, so the next refresh harvests it afresh.

        §4.3.1's ``DateExpires`` says when harvested knowledge goes
        bad; this forces a re-harvest ahead of it.  The next catalog
        leaves the source out, and its harvest date and unreachable
        marker go too.  A round that already holds the previous catalog
        finishes on it, records intact.
        """
        with self._writer:
            self.fetched_on.pop(source_id, None)
            self.unreachable.pop(source_id, None)
            if source_id in self.catalog.sources:
                sources = dict(self.catalog.sources)
                del sources[source_id]
                self.catalog = Catalog(sources)
