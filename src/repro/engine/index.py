"""Positional, fielded inverted index.

One index serves both halves of the STARTS query language: Boolean
filter expressions need document sets and positions (for ``prox``),
vector-space ranking expressions need term statistics (tf, df, document
lengths).  The index additionally maintains *summary statistics* —
surface-form term counts grouped by (field, language) — which is exactly
the raw material of the Section 4.3.2 content summaries, kept separate
so summaries can be unstemmed and case-preserving even when the engine
indexes stems.
"""

from __future__ import annotations

import bisect
from array import array
from collections import defaultdict
from dataclasses import dataclass

from repro.text.soundex import soundex

__all__ = ["InvertedIndex", "SummaryEntry", "TermState"]


@dataclass(slots=True)
class SummaryEntry:
    """Aggregate statistics for one surface word in one (field, language).

    Attributes:
        postings: total occurrences in the source (the paper's "total
            number of postings").
        document_frequency: number of documents containing the word.
    """

    postings: int = 0
    document_frequency: int = 0


class TermState:
    """One (field, term)'s postings: the engine's one posting layout.

    Three parallel columns — doc ids (``array('q')``, ascending), term
    frequencies (``array('I')``) and every posting's word positions flat
    in one ``array('I')``, split up by the tfs — plus ``df`` and
    ``max_tf``.  :meth:`InvertedIndex.add_field_tokens` appends to it,
    every reader takes it from :meth:`InvertedIndex.pruned_postings` as
    it is, and a flush writes its columns as they are.  The segment
    store's per-term accessor is the same contract over committed
    segments plus this record.

    :meth:`append` publishes a posting by bumping ``df`` after its
    columns grew, and readers cut every column at the ``df`` they read
    first, so no reader sees doc ids and tfs at different lengths.
    Beside the columns sits the ``array('d')`` of exact term weights,
    tagged with everything that computed it — the ranking, the
    collection size, the average length and ``df`` — so a record that
    grew is re-weighted even while the collection statistics read the
    same.  No reader writes into a column it was handed; the dicts are
    each reader's own, because the driver writes into its maps.
    """

    #: Multi-expansion accessors precompute this; a single list never does.
    doc_weight = None
    #: Smallest length among the term's documents — unknown in memory.
    min_len = None
    #: Whether :meth:`route` exists and its handles can bound blocks.
    has_blocks = False

    __slots__ = ("df", "max_tf", "_doc_ids", "_tfs", "_positions", "_weights")

    def __init__(self, doc_ids: array, tfs: array, positions: array) -> None:
        # The first posting's doc-id and tf columns may be shared with
        # other records (see ``add_field_tokens``): ``append`` copies
        # them before it writes.
        self._doc_ids = doc_ids
        self._tfs = tfs
        self._positions = positions
        self.df = len(doc_ids)
        self.max_tf = max(tfs, default=0)
        self._weights: tuple | None = None

    def append(self, doc_id: int, positions: list[int]) -> None:
        """Add one document's posting (ids ascend across calls)."""
        if self.df == 1:
            self._tfs = array("I", self._tfs)
            self._doc_ids = array("q", self._doc_ids)
        self._positions.extend(positions)
        self._tfs.append(len(positions))
        self._doc_ids.append(doc_id)
        self.max_tf = max(self.max_tf, len(positions))
        self.df += 1

    def columns(self) -> tuple[array, array]:
        """(doc ids, tfs) of every live posting, doc-id ascending."""
        df = self.df
        return self._doc_ids[:df], self._tfs[:df]

    def positions(self) -> tuple[array, array, array]:
        """:meth:`columns` plus the positions, flat, in tf-sized runs."""
        return (*self.columns(), self._positions)

    def tf_map(self) -> dict[int, int]:
        return dict(zip(*self.columns()))

    def weight_map(
        self, ranking, n_docs: int, token_count, avg: float
    ) -> dict[int, float]:
        """``doc id -> ranking.term_weight(...)`` over the whole list.

        The weight column is computed by whichever query first walks
        the list and reused while ``ranking`` is the object and
        ``(n_docs, avg, df)`` the numbers it was computed from.
        """
        doc_ids, tfs = self.columns()
        df = len(doc_ids)
        tag = (n_docs, avg, df)
        cached = self._weights
        if cached is None or cached[0] is not ranking or cached[1] != tag:
            term_weight = ranking.term_weight
            weights = array(
                "d",
                [
                    term_weight(tf, df, n_docs, token_count(doc_id), avg)
                    for doc_id, tf in zip(doc_ids, tfs)
                ],
            )
            cached = self._weights = (ranking, tag, weights)
        return dict(zip(doc_ids, cached[2]))

    def probe(self, doc_id: int) -> int:
        """Term frequency of ``doc_id`` (0 if absent)."""
        df = self.df
        slot = bisect.bisect_left(self._doc_ids, doc_id, 0, df)
        if slot < df and self._doc_ids[slot] == doc_id:
            return self._tfs[slot]
        return 0

    def block_bound(self, doc_id: int) -> None:
        """A record has no block column (see ``TermHandle``)."""
        return None


#: The record of every absent term: never appended to.
_NO_POSTINGS = TermState(array("q"), array("I"), array("I"))


class InvertedIndex:
    """Term → postings, per field, plus derived lookup structures.

    Documents must be added in increasing id order (the store hands out
    dense ids, so building sequentially satisfies this).
    """

    def __init__(self) -> None:
        # field -> term -> TermState, the term's posting columns.
        self._postings: dict[str, dict[str, TermState]] = defaultdict(dict)
        # (field, language) -> surface word -> SummaryEntry.
        self._summary: dict[tuple[str, str], dict[str, SummaryEntry]] = defaultdict(dict)
        self._doc_count = 0
        # Bumped on every mutation; lets callers (the term matcher)
        # cache derived lookups and invalidate them precisely.
        self._generation = 0
        # (layout key, then three lazily filled per-field lookups:
        # sorted vocabulary, sorted reversed-term vocabulary — so
        # left-truncation is a bisect, mirroring terms_with_prefix — and
        # soundex code -> terms), replaced together whenever the key moves.
        self._vocab_memo: tuple[object, dict, dict, dict] = (None, {}, {}, {})

    # -- construction ---------------------------------------------------

    def add_field_tokens(
        self,
        doc_id: int,
        field: str,
        tokens: list[tuple[str, str, int]],
        language: str = "en",
    ) -> None:
        """Index tokens of one document field.

        Args:
            doc_id: dense document id.
            field: field name.
            tokens: (index_term, surface_form, position) triples in
                position order.
            language: language tag string for summary grouping.
        """
        by_term: dict[str, list[int]] = defaultdict(list)
        words = self._summary[(field, language)] if tokens else {}
        counted: set[str] = set()  # surfaces this document already added to df
        for term, surface, position in tokens:
            by_term[term].append(position)
            entry = words.get(surface)
            if entry is None:
                entry = words[surface] = SummaryEntry()
            entry.postings += 1
            if surface not in counted:
                counted.add(surface)
                entry.document_frequency += 1
        field_postings = self._postings[field]
        # A term's first posting shares its one-element doc-id and tf
        # columns with the document's other new terms: most terms of a
        # small source never get a second posting, and two arrays of
        # their own would cost such a term more than the rest of it.
        first_doc = array("q", (doc_id,))
        first_tfs: dict[int, array] = {}
        for term, positions in by_term.items():
            positions.sort()
            record = field_postings.get(term)
            if record is not None:
                record.append(doc_id, positions)
                continue
            tfs = first_tfs.get(len(positions))
            if tfs is None:
                tfs = first_tfs[len(positions)] = array("I", (len(positions),))
            field_postings[term] = TermState(first_doc, tfs, array("I", positions))
        self._doc_count = max(self._doc_count, doc_id + 1)
        self._generation += 1

    # -- basic lookups ---------------------------------------------------

    @property
    def document_count(self) -> int:
        return self._doc_count

    @property
    def generation(self) -> int:
        """Monotone mutation counter (cache-invalidation token)."""
        return self._generation

    def fields(self) -> list[str]:
        return sorted(self._postings)

    def pruned_postings(self, field: str, term: str) -> TermState:
        """The term's postings: the one way every reader reaches them.

        In memory this is the record ``add_field_tokens`` appends to,
        returned as it is (an empty one for an absent term).
        """
        return self._postings.get(field, {}).get(term, _NO_POSTINGS)

    def has_postings(self, field: str, term: str) -> bool:
        """Whether ``term`` matches any live document — nothing decoded,
        and a fully tombstoned term is absent."""
        return self.pruned_postings(field, term).df > 0

    def segment_columns(self) -> dict[str, dict[str, tuple[array, array, array]]]:
        """``field → term → (doc ids, tfs, positions)``: what a flush
        writes, the records' own columns."""
        return {
            field: {term: record.positions() for term, record in terms.items()}
            for field, terms in self._postings.items()
        }

    def _layout_key(self):
        """Moves whenever anything a vocabulary memo was derived from moves."""
        return self.generation

    def _vocab_memos(self) -> tuple[dict, dict, dict]:
        """This layout's (sorted, reversed, soundex) per-field lookups."""
        key = self._layout_key()
        memo = self._vocab_memo
        if memo[0] != key:
            memo = self._vocab_memo = (key, {}, {}, {})
        return memo[1:]

    def _sorted_terms(self, field: str) -> list[str]:
        return sorted(self._postings.get(field, {}))

    def vocabulary(self, field: str) -> list[str]:
        """Sorted index vocabulary of a field."""
        memo = self._vocab_memos()[0]
        vocab = memo.get(field)
        if vocab is None:
            vocab = memo[field] = self._sorted_terms(field)
        return vocab

    # -- fuzzy/expanded matching -----------------------------------------

    def terms_with_prefix(self, field: str, prefix: str) -> list[str]:
        """Vocabulary terms starting with ``prefix`` (right-truncation)."""
        vocab = self.vocabulary(field)
        start = bisect.bisect_left(vocab, prefix)
        matches: list[str] = []
        for term in vocab[start:]:
            if not term.startswith(prefix):
                break
            matches.append(term)
        return matches

    def terms_with_suffix(self, field: str, suffix: str) -> list[str]:
        """Vocabulary terms ending with ``suffix`` (left-truncation).

        A suffix of a term is a prefix of its reversal, so the lookup
        is a bisect over a lazily maintained sorted list of reversed
        terms — sublinear in the vocabulary, like ``terms_with_prefix``.
        """
        memo = self._vocab_memos()[1]
        reversed_vocab = memo.get(field)
        if reversed_vocab is None:
            reversed_vocab = memo[field] = sorted(
                term[::-1] for term in self.vocabulary(field)
            )
        target = suffix[::-1]
        start = bisect.bisect_left(reversed_vocab, target)
        matches: list[str] = []
        for reversed_term in reversed_vocab[start:]:
            if not reversed_term.startswith(target):
                break
            matches.append(reversed_term[::-1])
        matches.sort()
        return matches

    def terms_with_soundex(self, field: str, word: str) -> list[str]:
        """Vocabulary terms phonetically equal to ``word``."""
        memo = self._vocab_memos()[2]
        codes = memo.get(field)
        if codes is None:
            codes = {}
            for term in self.vocabulary(field):
                codes.setdefault(soundex(term), set()).add(term)
            memo[field] = codes
        return sorted(codes.get(soundex(word), ()))

    # -- summary export ----------------------------------------------------

    def summary_sections(self) -> list[tuple[str, str, dict[str, SummaryEntry]]]:
        """(field, language, word → stats) sections for content summaries.

        Sections are sorted by (field, language) for deterministic
        export; words inside a section are left to the caller to order.
        """
        return [
            (field, language, dict(words))
            for (field, language), words in sorted(self._summary.items())
        ]
