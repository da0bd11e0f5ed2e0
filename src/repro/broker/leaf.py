"""Leaf brokers: one consistent-hash shard of the summary corpus.

A leaf owns the :class:`~repro.metasearch.SummaryIndex` for its
partition of sources, maintained by the same delta stream (source id +
fresh summary, or ``None`` on forget) that maintains the flat index —
and replays that same delta log into a *standby* index, so a failed
primary is replaced by promoting the standby and replaying only the
deltas it had not yet seen.  The index's generation counter is the
replication cursor: primary and standby were built from the identical
delta sequence, so equal generations mean bit-identical shards.

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
    "LeafUnavailableError",
]


class LeafUnavailableError(RuntimeError):
    """The leaf's primary index is down; fail over before retrying."""


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
    generation: int
    #: per query term: sources in this shard listing it.
    term_lengths: tuple[int, ...]
    #: per query term: sources listing it with positive df (cf_t).
    term_collection_frequencies: tuple[int, ...]
    #: per query term: total postings — additive, so the root's routing
    #: goodness over these equals vGlOSS-Sum of the merged summary.
    term_postings: tuple[int, ...]
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

    def collection_frequency(self, term: str) -> int:
        return self._stats.collection_frequencies.get(term, 0)

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
    """One shard: a primary index, a standby, and the delta log between.

    Args:
        leaf_id: the leaf's name on the ring and in metrics labels.
        eager_replication: replay each delta into the standby as it
            arrives (zero recovery lag, double write cost) instead of
            batching replays until :meth:`replicate` or a failover.
    """

    def __init__(self, leaf_id: str, eager_replication: bool = False) -> None:
        self.leaf_id = leaf_id
        self.eager_replication = eager_replication
        self.index = SummaryIndex()
        self._standby = SummaryIndex()
        #: the shard's delta log, the replication source of truth.
        self._log: list[tuple[str, SContentSummary | None]] = []
        self._standby_applied = 0
        self._down = False
        self._aggregate_cache: tuple[int, SContentSummary] | None = None
        #: how much of the upstream delta stream a warm restore already
        #: covers (0 for a cold broker); the caller replays only the
        #: stream suffix past this cursor.
        self.restored_log_position = 0

    # -- checkpointing -----------------------------------------------------

    def save_checkpoint(self, path) -> int:
        """Checkpoint this shard; returns the recorded log position."""
        from repro.storage.checkpoint import save_leaf_checkpoint

        return save_leaf_checkpoint(self, path)

    @classmethod
    def from_checkpoint(
        cls, path, eager_replication: bool = False
    ) -> "LeafBroker":
        """Warm a broker from a checkpoint instead of replaying history.

        The returned broker's :attr:`restored_log_position` is the
        delta-stream cursor the checkpoint covers; apply only the
        deltas logged after it.
        """
        from repro.storage.checkpoint import load_leaf_checkpoint

        return load_leaf_checkpoint(path, eager_replication)

    # -- delta stream ------------------------------------------------------

    def apply_delta(self, source_id: str, summary: SContentSummary | None) -> None:
        """One discovery delta: add/replace on a summary, remove on None.

        Deltas are accepted even while the primary is down — harvesting
        is upstream of serving — and replayed into whichever index is
        promoted next.
        """
        self._log.append((source_id, summary))
        self.index.update(source_id, summary)
        if self.eager_replication:
            self.replicate()

    def replicate(self) -> int:
        """Replay the delta-log suffix the standby has not seen yet.

        Returns how many deltas were replayed.  Afterwards the standby's
        generation equals the primary's: both indexes were built from
        the identical delta sequence.
        """
        pending = self._log[self._standby_applied :]
        for source_id, summary in pending:
            self._standby.update(source_id, summary)
        self._standby_applied = len(self._log)
        return len(pending)

    @property
    def replication_lag(self) -> int:
        """Deltas the standby is behind — what a failover must replay."""
        return len(self._log) - self._standby_applied

    @property
    def in_sync(self) -> bool:
        return self.replication_lag == 0

    # -- failure and failover ----------------------------------------------

    @property
    def is_down(self) -> bool:
        return self._down

    def fail(self) -> None:
        """Simulate losing the primary: serving raises until failover."""
        self._down = True

    def fail_over(self) -> None:
        """Promote the standby: catch it up from the log, then swap.

        The old primary is discarded and a cold standby takes its place;
        the next :meth:`replicate` rebuilds it from the full log.
        """
        self.replicate()
        self.index = self._standby
        self._standby = SummaryIndex()
        self._standby_applied = 0
        self._down = False
        self._aggregate_cache = None

    def _require_up(self) -> None:
        if self._down:
            raise LeafUnavailableError(f"leaf {self.leaf_id!r} is down")

    # -- serving -----------------------------------------------------------

    def probe(self, terms: Sequence[str], k: int) -> LeafProbe:
        """Round one: aggregate statistics only, no per-source data."""
        self._require_up()
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
            generation=index.generation,
            term_lengths=tuple(len(column) for column in columns),
            term_collection_frequencies=tuple(
                column.collection_frequency for column in columns
            ),
            term_postings=tuple(sum(column.postings) for column in columns),
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
        self._require_up()
        return selector.top_candidates(terms, GlobalStatsView(self.index, stats), k)

    def rank_all(
        self,
        selector: SourceSelector,
        terms: Sequence[str],
        stats: CorpusStats,
    ) -> list[tuple[str, float]]:
        """Every local source scored with global statistics, best first."""
        self._require_up()
        return selector.rank(terms, GlobalStatsView(self.index, stats))

    def aggregate_summary(self) -> SContentSummary:
        """The exact merged summary of the shard (generation-cached)."""
        self._require_up()
        cached = self._aggregate_cache
        if cached is not None and cached[0] == self.index.generation:
            return cached[1]
        merged = merge_summaries(list(self.index.summaries().values()))
        self._aggregate_cache = (self.index.generation, merged)
        return merged

    def shard_stats(self) -> dict[str, int | bool | str]:
        """One row of the CLI's per-leaf table (and the wire endpoint)."""
        return {
            "leaf": self.leaf_id,
            "sources": len(self.index),
            "terms": self.index.term_count,
            "generation": self.index.generation,
            "replication_lag": self.replication_lag,
            "in_sync": self.in_sync,
        }
