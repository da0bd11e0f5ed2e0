"""Discovery and metadata harvesting (§3.4's periodic tasks).

A metasearcher must "extract the list of sources from the resources
periodically" and "extract metadata and content summaries from the
sources periodically".  :class:`DiscoveryService` does both over the
transport layer, caching everything it fetches and honouring the
``DateExpires`` metadata attribute so stale entries are re-fetched.
"""

from __future__ import annotations

from collections.abc import Callable
from dataclasses import dataclass, field as dataclass_field
from functools import cached_property

from repro.cache.summaries import SummaryTtlPolicy
from repro.metasearch.summary_index import SummaryIndex
from repro.metasearch.translation import translation_target
from repro.source.sample import SampleResults
from repro.starts.errors import SoifSyntaxError
from repro.starts.metadata import SContentSummary, SMetaAttributes
from repro.transport.client import StartsClient
from repro.transport.network import TransportError

__all__ = ["KnownSource", "DiscoveryService"]


@dataclass
class KnownSource:
    """Everything a metasearcher knows about one discovered source."""

    source_id: str
    metadata: SMetaAttributes
    summary: SContentSummary | None = None
    sample_results: SampleResults | None = None
    resource_url: str | None = None

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
    """

    client: StartsClient
    clock: str = "1996-08-01"
    ttl_policy: SummaryTtlPolicy = SummaryTtlPolicy()
    _sources: dict[str, KnownSource] = dataclass_field(default_factory=dict)
    #: source_id → metadata URL for sources skipped on the last refresh
    #: because their host was unreachable or their metadata malformed.
    unreachable: dict[str, str] = dataclass_field(default_factory=dict)
    #: source_id → clock date of the last successful harvest; feeds the
    #: heuristic TTL ("age at harvest") of :attr:`ttl_policy`.
    fetched_on: dict[str, str] = dataclass_field(default_factory=dict)
    #: callbacks fired with a source id whenever its cached knowledge is
    #: dropped or replaced, so downstream caches (query results,
    #: negative entries) can purge anything derived from it.
    _purge_hooks: list[Callable[[str], None]] = dataclass_field(default_factory=list)
    #: the inverted view of every harvested summary, maintained as
    #: deltas: harvest adds, re-harvest replaces, :meth:`forget` drops.
    #: Selection scores against this instead of rescanning the dict.
    _summary_index: SummaryIndex = dataclass_field(default_factory=SummaryIndex)

    def refresh_resource(
        self, resource_url: str, client: StartsClient | None = None
    ) -> list[KnownSource]:
        """Fetch a resource's source list and harvest each new source.

        Returns the known sources belonging to this resource.  A source
        whose metadata cannot be fetched (dead or flaky host) or does not
        decode (:class:`SoifSyntaxError`) is skipped for this round — a
        stale entry from an earlier harvest is kept rather than dropped,
        and the source id is recorded in :attr:`unreachable` so callers
        can see what was missed.

        ``client`` fetches this one harvest instead of :attr:`client` —
        how a traced refresh routes its fetch events to the caller's
        tracer without leaving that tracer on the shared client.
        """
        client = client or self.client
        resource = client.fetch_resource(resource_url)
        harvested: list[KnownSource] = []
        for source_id, metadata_url in resource.source_list:
            known = self._sources.get(source_id)
            if known is None or self._is_stale(known):
                refreshing = known is not None
                try:
                    known = self._harvest(
                        client, source_id, metadata_url, resource_url
                    )
                except _HARVEST_FAILURES:
                    self.unreachable[source_id] = metadata_url
                    if known is None:
                        continue
                else:
                    self.unreachable.pop(source_id, None)
                    self._sources[source_id] = known
                    self.fetched_on[source_id] = self.clock
                    self._summary_index.update(source_id, known.summary)
                    if refreshing:
                        # The source's metadata/summary just changed out
                        # from under anything derived from the old copy.
                        self._fire_purge(source_id)
            harvested.append(known)
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

    # -- lookups -------------------------------------------------------------

    def known_sources(self) -> list[KnownSource]:
        return [self._sources[source_id] for source_id in sorted(self._sources)]

    def source(self, source_id: str) -> KnownSource:
        return self._sources[source_id]

    def summaries(self) -> dict[str, SContentSummary]:
        return {
            source_id: known.summary
            for source_id, known in self._sources.items()
            if known.summary is not None
        }

    def summary_index(self) -> SummaryIndex:
        """The incrementally maintained inverted summary index.

        Coherent with :meth:`summaries` by construction: every harvest,
        stale re-harvest and :meth:`forget` applies the matching
        add/replace/remove delta, alongside the same purge hooks the
        derived caches listen on.
        """
        return self._summary_index

    # -- invalidation --------------------------------------------------------

    def add_purge_hook(self, hook: Callable[[str], None]) -> None:
        """Call ``hook(source_id)`` whenever a source's cached knowledge
        is forgotten or replaced by a fresh harvest."""
        self._purge_hooks.append(hook)

    def _fire_purge(self, source_id: str) -> None:
        for hook in self._purge_hooks:
            hook(source_id)

    def forget(self, source_id: str) -> None:
        """Drop *everything* cached for a source, not just its entry.

        Purges the known-source record (metadata, content summary and
        sample results ride along with it), the harvest date that
        feeds the TTL heuristic, and the unreachable marker, then fires
        the purge hooks so derived caches drop their entries too.
        """
        known = self._sources.pop(source_id, None)
        if known is not None:
            # Sever the heavyweight references even if a caller still
            # holds the KnownSource record.
            known.summary = None
            known.sample_results = None
        self._summary_index.remove(source_id)
        self.fetched_on.pop(source_id, None)
        self.unreachable.pop(source_id, None)
        self._fire_purge(source_id)
