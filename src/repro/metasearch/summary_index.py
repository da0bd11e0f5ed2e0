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

* **term shards** — ``term → columnar postings`` of ``(source
  ordinal, document frequency, total postings)`` held as parallel
  tuples, so a query term touches only the sources that actually
  contain it, plus each row's vGlOSS-Max addend (computed once here,
  not on every query); rows run in descending addend order, so a
  selector can stop reading a column once nothing further down can
  change its top k.  The tuples share the summaries' int objects and
  one float per distinct addend, so they hold no more than packed
  arrays would;
* **source columns** — interned source ids plus ``num_docs`` /
  ``total word mass`` / case-sensitivity columns addressed by ordinal;
* **corpus statistics** — per-term collection frequency (counted on
  each shard), the total clamped word mass (an exact integer
  sum, so CORI's mean is bit-identical to the dense recomputation), the
  source count and the id-ordered source list.

An index is built once, by :meth:`SummaryIndex.from_summaries`, and
never changed: discovery builds a fresh one for every catalog it
publishes (:class:`~repro.metasearch.discovery.Catalog`), so a round
that holds an index holds a consistent one.  The summary objects
themselves are not retained: the catalog holds them.

Word keying follows each summary's own case rule, exactly as
:meth:`SContentSummary.word_statistics` does: a case-insensitive summary is
indexed under lowercased words, a case-sensitive one under raw words.
All-lowercase query terms (the metasearcher's normal case) resolve with
a single shard lookup; terms containing uppercase merge the raw-key
shard (case-sensitive sources only) with the lowered-key shard
(case-insensitive sources only).
"""

from __future__ import annotations

import math
from collections.abc import Mapping
from dataclasses import dataclass
from operator import itemgetter

from repro.starts.metadata import SContentSummary

__all__ = ["SummaryIndex", "TermColumns"]


@dataclass(frozen=True, slots=True)
class TermColumns:
    """One query term's postings, as parallel columns.

    The rows are in descending ``weights`` order: ``weights`` holds each
    row's vGlOSS-Max addend, ``df * (1 + ln max(postings / df, 1))`` or
    ``0.0`` where the df is not positive, computed once at build.
    ``positions`` maps source ordinal → slot in the columns, for O(1)
    membership tests (BGloss intersections) and lookups.
    ``collection_frequency`` is the number of listed sources whose df is
    positive — CORI's ``cf_t``, counted at build.

    ``len()`` is the row count, and iterating yields the six fields in
    order, so a caller can unpack them.
    """

    ordinals: tuple[int, ...]
    document_frequencies: tuple[int, ...]
    postings: tuple[int, ...]
    weights: tuple[float, ...]
    collection_frequency: int
    positions: dict[int, int]

    def __len__(self) -> int:
        return len(self.ordinals)

    def __iter__(self):
        return iter((
            self.ordinals,
            self.document_frequencies,
            self.postings,
            self.weights,
            self.collection_frequency,
            self.positions,
        ))


_EMPTY_COLUMNS = TermColumns((), (), (), (), 0, {})


def _addend(postings: int, document_frequency: int) -> float:
    """One source's vGlOSS-Max addend for one term (the dense formula)."""
    if document_frequency <= 0:
        return 0.0
    return document_frequency * (
        1.0 + math.log(max(postings / document_frequency, 1.0))
    )


_Row = tuple[float, int, int, int]  # (weight, ordinal, df, postings)


def _sorted_columns(rows: list[_Row]) -> TermColumns:
    """Rows as parallel columns in descending weight order (tied rows
    keep their order), with their positions and collection frequency.

    The one place columns are made: the build and ``term_columns``'
    mixed-case merge both come through here, so every column a selector
    reads is sorted.
    """
    if not rows:
        return _EMPTY_COLUMNS
    rows.sort(key=itemgetter(0), reverse=True)
    weights, ordinals, document_frequencies, postings = zip(*rows)
    return TermColumns(
        ordinals,
        document_frequencies,
        postings,
        weights,
        # A weight is at least the df where the df is positive, else 0.0.
        len(weights) - weights.count(0.0),
        dict(zip(ordinals, range(len(ordinals)))),
    )


class SummaryIndex:
    """Inverted view of a set of content summaries, built once.

    :meth:`from_summaries` is the constructor; nothing changes an index
    after it returns.
    """

    def __init__(self) -> None:
        # Source columns, addressed by ordinal.
        self._source_ids: list[str] = []
        self._num_docs: list[int] = []
        self._word_mass: list[int] = []
        self._case_sensitive: list[bool] = []
        self._ordinal_of: dict[str, int] = {}
        self._sorted: list[tuple[str, int]] = []
        # Term shards and corpus statistics.
        self._shards: dict[str, TermColumns] = {}
        self._clamped_mass_total = 0  # exact integer sum of max(1, mass)

    @classmethod
    def from_summaries(
        cls, summaries: Mapping[str, SContentSummary]
    ) -> "SummaryIndex":
        """Index every summary, in the mapping's order."""
        index = cls()
        rows: dict[str, list[_Row]] = {}
        # Few distinct (postings, df) pairs recur across many summaries:
        # each addend is computed once per pair, not once per entry.
        addends: dict[tuple[int, int], float] = {}
        for ordinal, (source_id, summary) in enumerate(summaries.items()):
            word_mass = summary.total_word_mass()
            index._ordinal_of[source_id] = ordinal
            index._source_ids.append(source_id)
            index._num_docs.append(summary.num_docs)
            index._word_mass.append(word_mass)
            index._case_sensitive.append(summary.case_sensitive)
            index._clamped_mass_total += max(1, word_mass)
            for word, statistics in summary.word_statistics().items():
                weight = addends.get(statistics)
                if weight is None:
                    weight = addends[statistics] = _addend(*statistics)
                row = (weight, ordinal, statistics[1], statistics[0])
                word_rows = rows.get(word)
                if word_rows is None:
                    rows[word] = [row]
                else:
                    word_rows.append(row)
        shards = index._shards
        for word, word_rows in rows.items():
            shards[word] = _sorted_columns(word_rows)
        index._sorted = sorted(index._ordinal_of.items())
        return index

    # -- sizes -------------------------------------------------------------

    def __len__(self) -> int:
        return len(self._source_ids)

    @property
    def source_count(self) -> int:
        return len(self._source_ids)

    @property
    def term_count(self) -> int:
        return len(self._shards)

    def __contains__(self, source_id: str) -> bool:
        return source_id in self._ordinal_of

    # -- source columns ----------------------------------------------------

    def source_id(self, ordinal: int) -> str:
        return self._source_ids[ordinal]

    def num_docs(self, ordinal: int) -> int:
        return self._num_docs[ordinal]

    def clamped_word_mass(self, ordinal: int) -> float:
        """``max(1.0, total word mass)`` — CORI's per-source ``cw``."""
        return max(1.0, float(self._word_mass[ordinal]))

    def mean_clamped_word_mass(self) -> float:
        """Mean clamped word mass over the indexed sources.

        The total is an exact integer sum, so this equals the dense
        recomputation bit for bit.
        """
        if not self._source_ids:
            return 0.0
        return float(self._clamped_mass_total) / len(self._source_ids)

    def sorted_sources(self) -> list[tuple[str, int]]:
        """``(source id, ordinal)`` pairs in id order."""
        return self._sorted

    def source_ids(self) -> list[str]:
        return [source_id for source_id, _ in self.sorted_sources()]

    # -- term shards -------------------------------------------------------

    def term_columns(self, term: str) -> TermColumns:
        """The postings of one query term, per-summary case rules applied.

        An all-lowercase term is a single shard lookup.  A term with
        uppercase in it must honour each summary's own case rule — the
        raw-key shard contributes its case-sensitive sources, the
        lowered-key shard its case-insensitive ones — so that path
        filters and merges into fresh columns, sorted as a shard is.
        """
        lowered = term.lower()
        if term == lowered:
            return self._shards.get(term, _EMPTY_COLUMNS)
        rows: list[_Row] = []
        for key, want_case_sensitive in ((term, True), (lowered, False)):
            shard = self._shards.get(key, _EMPTY_COLUMNS)
            rows.extend(
                row
                for row in zip(shard.weights, shard.ordinals,
                               shard.document_frequencies, shard.postings)
                if self._case_sensitive[row[1]] is want_case_sensitive
            )
        return _sorted_columns(rows)
