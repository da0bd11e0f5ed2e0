"""Leaf brokers: one consistent-hash shard of the summary corpus.

A leaf owns the :class:`~repro.metasearch.SummaryIndex` for its
partition of sources, maintained by the same delta stream (source id +
fresh summary, or ``None`` on forget) that maintains the flat index.

Scoring stays bit-exact with the flat oracle through
:class:`GlobalStatsView`: the leaf's local shard masquerading as the
whole federation's index, with the three corpus-level statistics CORI
reads — source count, mean clamped word mass, per-term collection
frequency — replaced by the root's exact aggregates.  Every per-source
arithmetic step then evaluates the very same floats the flat path
evaluates, and a per-leaf top-k is a true fragment of the global
ranking.
"""

from __future__ import annotations

from collections.abc import Mapping, Sequence
from dataclasses import dataclass

from repro.metasearch.selection import SourceSelector
from repro.metasearch.summary_index import SummaryIndex, TermColumns
from repro.starts.metadata import SContentSummary, merge_summaries

__all__ = [
    "CorpusStats",
    "GlobalStatsView",
    "LeafBroker",
    "LeafProbe",
]


@dataclass(frozen=True)
class CorpusStats:
    """The corpus-level statistics selection needs, aggregated exactly.

    All three are integer sums over disjoint shards, so summing the
    leaves' contributions in any order reproduces the flat index's
    values bit for bit.
    """

    n_sources: int
    clamped_mass_total: int
    #: per query term — how many sources contain it with positive df.
    collection_frequencies: Mapping[str, int]


@dataclass(frozen=True)
class LeafProbe:
    """Round one of a brokered selection: one leaf's aggregate claim.

    Everything the root needs to (a) build :class:`CorpusStats`, (b)
    decide which leaves to descend into, and (c) stand in for a pruned
    leaf's sources — without shipping any per-source data.
    """

    leaf_id: str
    n_sources: int
    clamped_mass_total: int
    #: per query term: sources in this shard listing it.
    term_lengths: tuple[int, ...]
    #: per query term: sources listing it with positive df (cf_t).
    term_collection_frequencies: tuple[int, ...]
    #: the first k source ids in id order — exactly the sources that
    #: can still make the global top-k if this whole leaf scores the
    #: selector's sparse default.
    fill_ids: tuple[str, ...]

    def touches(self) -> bool:
        """Whether any query term appears in this leaf's shard."""
        return any(self.term_lengths)


class GlobalStatsView(SummaryIndex):
    """A leaf shard scored as if it were the whole federation's index.

    Delegates every per-source read to the local shard and overrides
    only the corpus-level statistics with the root's exact aggregates.
    Deliberately skips ``SummaryIndex.__init__``: the view holds no
    columns of its own and must never be mutated.
    """

    # noqa: the base initializer is intentionally not called.
    def __init__(self, local: SummaryIndex, stats: CorpusStats) -> None:
        self._local = local
        self._stats = stats

    # -- corpus statistics: the root's aggregates --------------------------

    def __len__(self) -> int:
        return self._stats.n_sources

    def mean_clamped_word_mass(self) -> float:
        if not self._stats.n_sources:
            return 0.0
        return float(self._stats.clamped_mass_total) / self._stats.n_sources

    def term_columns(self, term: str) -> TermColumns:
        # Not ``_replace``: TermColumns overrides ``__len__`` (shard
        # length), which breaks namedtuple's arity check.
        columns = self._local.term_columns(term)
        return TermColumns(
            columns.ordinals,
            columns.document_frequencies,
            columns.postings,
            self._stats.collection_frequencies.get(term, 0),
            columns.positions,
        )

    # -- per-source reads: the local shard ---------------------------------

    def __contains__(self, source_id: str) -> bool:
        return source_id in self._local

    def source_id(self, ordinal: int) -> str:
        return self._local.source_id(ordinal)

    def num_docs(self, ordinal: int) -> int:
        return self._local.num_docs(ordinal)

    def clamped_word_mass(self, ordinal: int) -> float:
        return self._local.clamped_word_mass(ordinal)

    def sorted_sources(self) -> list[tuple[str, int]]:
        return self._local.sorted_sources()

    def source_ids(self) -> list[str]:
        return self._local.source_ids()

    def summaries(self) -> dict[str, SContentSummary]:
        return self._local.summaries()

    def summary(self, source_id: str) -> SContentSummary:
        return self._local.summary(source_id)

    @property
    def generation(self) -> int:  # type: ignore[override]
        return self._local.generation


class LeafBroker:
    """One shard: a summary index fed by the discovery delta stream.

    Args:
        leaf_id: the leaf's name on the ring and in metrics labels.
    """

    def __init__(self, leaf_id: str) -> None:
        self.leaf_id = leaf_id
        self.index = SummaryIndex()
        self._aggregate_cache: tuple[int, SContentSummary] | None = None

    # -- delta stream ------------------------------------------------------

    def apply_delta(self, source_id: str, summary: SContentSummary | None) -> None:
        """One discovery delta: add/replace on a summary, remove on None."""
        self.index.update(source_id, summary)

    # -- serving -----------------------------------------------------------

    def probe(self, terms: Sequence[str], k: int) -> LeafProbe:
        """Round one: aggregate statistics only, no per-source data."""
        index = self.index
        columns = [index.term_columns(term) for term in terms]
        fill: list[str] = []
        for source_id, _ in index.sorted_sources():
            if len(fill) >= k:
                break
            fill.append(source_id)
        return LeafProbe(
            leaf_id=self.leaf_id,
            n_sources=len(index),
            clamped_mass_total=index.clamped_mass_total,
            term_lengths=tuple(len(column) for column in columns),
            term_collection_frequencies=tuple(
                column.collection_frequency for column in columns
            ),
            fill_ids=tuple(fill),
        )

    def select_candidates(
        self,
        selector: SourceSelector,
        terms: Sequence[str],
        k: int,
        stats: CorpusStats,
    ) -> list[tuple[str, float]]:
        """Round two: this shard's exact fragment of the global top-k."""
        return selector.top_candidates(terms, GlobalStatsView(self.index, stats), k)

    def aggregate_summary(self) -> SContentSummary:
        """The exact merged summary of the shard (generation-cached)."""
        cached = self._aggregate_cache
        if cached is not None and cached[0] == self.index.generation:
            return cached[1]
        merged = merge_summaries(list(self.index.summaries().values()))
        self._aggregate_cache = (self.index.generation, merged)
        return merged

    def shard_stats(self) -> dict[str, int | str]:
        """One row of the CLI's per-leaf table."""
        return {
            "leaf": self.leaf_id,
            "sources": len(self.index),
            "terms": self.index.term_count,
            "generation": self.index.generation,
        }
