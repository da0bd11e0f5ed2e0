"""Term-sharded summary index: sparse source selection at scale.

The selectors in :mod:`repro.metasearch.selection` are pure functions
of the harvested content summaries.  Scoring them source-by-source
would be a dense scan: every source × every query term through a
per-summary dict lookup, with CORI recomputing corpus statistics (per-
term collection frequency, mean word mass) from the full summary set on
every call.  At thousands of sources that scan *is* the cost of a
query's selection phase (it survives as the test oracle,
``tests/oracles/dense_selection.py``).

:class:`SummaryIndex` inverts the summaries once instead, and is the
only thing a selector scores:

* **term shards** — ``term → packed columnar postings`` of
  ``(source ordinal, document frequency, total postings)`` held as
  parallel ``array('q')`` columns, so a query term touches only the
  sources that actually contain it;
* **source columns** — interned source ids plus ``num_docs`` /
  ``total word mass`` / case-sensitivity columns addressed by ordinal;
* **corpus statistics maintained incrementally** — per-term collection
  frequency (a counter riding on each shard), the total clamped word
  mass (an exact integer sum, so CORI's mean is bit-identical to a
  from-scratch recomputation) and the live source count.

Mutations are deltas: :meth:`add` interns or re-harvests one source,
:meth:`remove` drops it, and every delta bumps :attr:`generation` so
downstream memos (sorted id order, selector caches) know to refresh.
The original summary objects are retained: a leaf broker merges them
into its aggregate summary.

Word keying follows each summary's own case rule, exactly as
:meth:`SContentSummary.lookup` does: a case-insensitive summary is
indexed under lowercased words, a case-sensitive one under raw words.
All-lowercase query terms (the metasearcher's normal case) resolve with
a single shard lookup; terms containing uppercase merge the raw-key
shard (case-sensitive sources only) with the lowered-key shard
(case-insensitive sources only).
"""

from __future__ import annotations

from array import array
from typing import NamedTuple

from repro.observability.metrics import get_registry
from repro.starts.metadata import SContentSummary

__all__ = ["SummaryIndex", "TermColumns"]


class TermColumns(NamedTuple):
    """One query term's postings, as parallel columns.

    ``positions`` maps source ordinal → slot in the columns, for O(1)
    membership tests (BGloss intersections) and df lookups.
    ``collection_frequency`` is the number of listed sources whose df is
    positive — CORI's ``cf_t``, maintained incrementally.
    """

    ordinals: "array[int] | list[int]"
    document_frequencies: "array[int] | list[int]"
    postings: "array[int] | list[int]"
    collection_frequency: int
    positions: dict[int, int]

    def __len__(self) -> int:
        return len(self.ordinals)


_EMPTY_COLUMNS = TermColumns(array("q"), array("q"), array("q"), 0, {})


class _TermShard:
    """The packed postings of one term: parallel append-only columns.

    Removal swaps the victim with the last slot, so the columns stay
    dense; order within a shard is not meaningful (selector output is
    totally ordered by ``(-score, source id)`` downstream).
    """

    __slots__ = ("ordinals", "document_frequencies", "postings", "positions",
                 "df_positive")

    def __init__(self) -> None:
        self.ordinals = array("q")
        self.document_frequencies = array("q")
        self.postings = array("q")
        self.positions: dict[int, int] = {}
        self.df_positive = 0

    def __len__(self) -> int:
        return len(self.ordinals)

    def add(self, ordinal: int, document_frequency: int, postings: int) -> None:
        self.positions[ordinal] = len(self.ordinals)
        self.ordinals.append(ordinal)
        self.document_frequencies.append(document_frequency)
        self.postings.append(postings)
        if document_frequency > 0:
            self.df_positive += 1

    def remove(self, ordinal: int) -> None:
        slot = self.positions.pop(ordinal)
        if self.document_frequencies[slot] > 0:
            self.df_positive -= 1
        last = len(self.ordinals) - 1
        if slot != last:
            moved = self.ordinals[last]
            self.ordinals[slot] = moved
            self.document_frequencies[slot] = self.document_frequencies[last]
            self.postings[slot] = self.postings[last]
            self.positions[moved] = slot
        self.ordinals.pop()
        self.document_frequencies.pop()
        self.postings.pop()


class SummaryIndex:
    """Inverted view of a set of content summaries, maintained by deltas."""

    def __init__(self) -> None:
        # Source columns, addressed by ordinal.  Removed ordinals go on
        # the free list and are recycled by later adds.
        self._source_ids: list[str | None] = []
        self._num_docs: list[int] = []
        self._word_mass: list[int] = []
        self._case_sensitive: list[bool] = []
        self._source_terms: list[tuple[str, ...]] = []
        self._free: list[int] = []
        self._ordinal_of: dict[str, int] = {}
        self._summaries: dict[str, SContentSummary] = {}
        # Term shards and incrementally maintained corpus statistics.
        self._shards: dict[str, _TermShard] = {}
        self._clamped_mass_total = 0  # exact integer sum of max(1, mass)
        #: bumped on every add/replace/remove; memo invalidation signal.
        self.generation = 0
        self._sorted_cache: tuple[int, list[tuple[str, int]]] | None = None

    @classmethod
    def from_summaries(
        cls, summaries: dict[str, SContentSummary]
    ) -> "SummaryIndex":
        index = cls()
        for source_id, summary in summaries.items():
            index.add(source_id, summary)
        return index

    # -- sizes -------------------------------------------------------------

    def __len__(self) -> int:
        return len(self._ordinal_of)

    @property
    def source_count(self) -> int:
        return len(self._ordinal_of)

    @property
    def term_count(self) -> int:
        return len(self._shards)

    def __contains__(self, source_id: str) -> bool:
        return source_id in self._ordinal_of

    # -- mutation ----------------------------------------------------------

    def add(self, source_id: str, summary: SContentSummary) -> None:
        """Index (or re-index) one source's summary as a delta."""
        if source_id in self._ordinal_of:
            self.remove(source_id)
        if self._free:
            ordinal = self._free.pop()
            self._source_ids[ordinal] = source_id
            self._num_docs[ordinal] = summary.num_docs
            self._word_mass[ordinal] = summary.total_word_mass()
            self._case_sensitive[ordinal] = summary.case_sensitive
        else:
            ordinal = len(self._source_ids)
            self._source_ids.append(source_id)
            self._num_docs.append(summary.num_docs)
            self._word_mass.append(summary.total_word_mass())
            self._case_sensitive.append(summary.case_sensitive)
            self._source_terms.append(())
        statistics = summary.word_statistics()
        for word, (postings, document_frequency) in statistics.items():
            shard = self._shards.get(word)
            if shard is None:
                shard = self._shards[word] = _TermShard()
            shard.add(ordinal, document_frequency, postings)
        self._source_terms[ordinal] = tuple(statistics)
        self._ordinal_of[source_id] = ordinal
        self._summaries[source_id] = summary
        self._clamped_mass_total += max(1, self._word_mass[ordinal])
        self._bump()

    def remove(self, source_id: str) -> bool:
        """Drop one source; returns whether it was indexed at all.

        Every term shard the source contributed to sheds its entry (and
        its collection-frequency count, when df was positive); shards
        left empty are deleted outright so :attr:`term_count` tracks the
        live vocabulary.
        """
        ordinal = self._ordinal_of.pop(source_id, None)
        if ordinal is None:
            return False
        for word in self._source_terms[ordinal]:
            shard = self._shards[word]
            shard.remove(ordinal)
            if not len(shard):
                del self._shards[word]
        self._clamped_mass_total -= max(1, self._word_mass[ordinal])
        self._source_terms[ordinal] = ()
        self._source_ids[ordinal] = None
        self._num_docs[ordinal] = 0
        self._word_mass[ordinal] = 0
        self._free.append(ordinal)
        del self._summaries[source_id]
        self._bump()
        return True

    def update(self, source_id: str, summary: SContentSummary | None) -> None:
        """Apply one discovery delta: a fresh summary, or none at all."""
        if summary is None:
            self.remove(source_id)
        else:
            self.add(source_id, summary)

    def _bump(self) -> None:
        self.generation += 1
        self._sorted_cache = None
        registry = get_registry()
        registry.gauge(
            "summary_index_terms",
            "Distinct summary words currently held by the summary index.",
        ).set(len(self._shards))
        registry.gauge(
            "summary_index_sources",
            "Sources currently indexed for selection.",
        ).set(len(self._ordinal_of))

    # -- source columns ----------------------------------------------------

    def source_id(self, ordinal: int) -> str:
        identifier = self._source_ids[ordinal]
        assert identifier is not None
        return identifier

    def num_docs(self, ordinal: int) -> int:
        return self._num_docs[ordinal]

    def clamped_word_mass(self, ordinal: int) -> float:
        """``max(1.0, total word mass)`` — CORI's per-source ``cw``."""
        return max(1.0, float(self._word_mass[ordinal]))

    @property
    def clamped_mass_total(self) -> int:
        """The exact integer sum of ``max(1, word mass)`` over sources.

        Additive across disjoint shards: a broker root sums its leaves'
        totals and recovers the flat index's mean word mass bit for bit.
        """
        return self._clamped_mass_total

    def mean_clamped_word_mass(self) -> float:
        """Mean clamped word mass over live sources.

        The running total is an exact integer sum, so this equals a
        from-scratch recomputation bit for bit.
        """
        if not self._ordinal_of:
            return 0.0
        return float(self._clamped_mass_total) / len(self._ordinal_of)

    def sorted_sources(self) -> list[tuple[str, int]]:
        """Live ``(source id, ordinal)`` pairs in id order (memoized)."""
        cached = self._sorted_cache
        if cached is not None and cached[0] == self.generation:
            return cached[1]
        ordered = sorted(self._ordinal_of.items())
        self._sorted_cache = (self.generation, ordered)
        return ordered

    def source_ids(self) -> list[str]:
        return [source_id for source_id, _ in self.sorted_sources()]

    def summaries(self) -> dict[str, SContentSummary]:
        """A copy of the indexed ``source id → summary`` mapping."""
        return dict(self._summaries)

    def summary(self, source_id: str) -> SContentSummary:
        return self._summaries[source_id]

    # -- term shards -------------------------------------------------------

    def term_columns(self, term: str) -> TermColumns:
        """The postings of one query term, per-summary case rules applied.

        An all-lowercase term is a single shard lookup.  A term with
        uppercase in it must honour each summary's own case rule — the
        raw-key shard contributes its case-sensitive sources, the
        lowered-key shard its case-insensitive ones — so that path
        filters and merges into fresh columns.
        """
        lowered = term.lower()
        if term == lowered:
            shard = self._shards.get(term)
            if shard is None:
                return _EMPTY_COLUMNS
            return TermColumns(
                shard.ordinals,
                shard.document_frequencies,
                shard.postings,
                shard.df_positive,
                shard.positions,
            )
        ordinals: list[int] = []
        document_frequencies: list[int] = []
        postings: list[int] = []
        collection_frequency = 0
        for key, want_case_sensitive in ((term, True), (lowered, False)):
            shard = self._shards.get(key)
            if shard is None:
                continue
            for slot, ordinal in enumerate(shard.ordinals):
                if self._case_sensitive[ordinal] is not want_case_sensitive:
                    continue
                ordinals.append(ordinal)
                document_frequency = shard.document_frequencies[slot]
                document_frequencies.append(document_frequency)
                postings.append(shard.postings[slot])
                if document_frequency > 0:
                    collection_frequency += 1
        positions = {ordinal: slot for slot, ordinal in enumerate(ordinals)}
        return TermColumns(
            ordinals, document_frequencies, postings,
            collection_frequency, positions,
        )
