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

__all__ = ["Posting", "InvertedIndex", "SummaryEntry", "TermState"]

#: Entry cap of the per-(field, term) memos an index keeps between
#: mutations (term state here, merged postings on segments); a memo
#: that fills up is cleared wholesale.
TERM_MEMO_LIMIT = 65536


@dataclass(frozen=True, slots=True)
class Posting:
    """Occurrences of one term in one document's field.

    ``positions`` are word offsets within the field, in increasing
    order; ``len(positions)`` is the within-field term frequency.
    """

    doc_id: int
    positions: tuple[int, ...]

    @property
    def term_frequency(self) -> int:
        return len(self.positions)


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
    """Warm pruned-evaluation state of one (field, term).

    What the MaxScore driver reads about a term depends only on the
    index, so it is derived once per index layout
    (:meth:`InvertedIndex.pruned_postings` memoizes it) and shared by
    every query and thread until the layout key moves: ``df`` /
    ``max_tf`` / ``min_len`` for the score cap, the postings as two
    parallel **positionless columns** (``array('q')`` doc ids,
    ``array('I')`` tfs — 12 bytes a posting, no :class:`Posting`), and
    beside them the ``array('d')`` of exact term weights, tagged with
    what computed it.  Published columns are never mutated; the driver
    writes into its maps, so every call hands out a fresh dict.
    """

    #: Multi-expansion accessors precompute this; a single list never does.
    doc_weight = None

    __slots__ = ("df", "max_tf", "min_len", "has_blocks", "_columns", "_weights")

    def __init__(self, postings: list[Posting], max_tf: int) -> None:
        self.df = len(postings)
        self.max_tf = max_tf
        #: Smallest length among the term's documents, when known.
        self.min_len: int | None = None
        #: Whether :meth:`route` exists and its handles can bound blocks.
        self.has_blocks = False
        self._columns = (
            array("q", [posting.doc_id for posting in postings]),
            array("I", [len(posting.positions) for posting in postings]),
        )
        self._weights: tuple | None = None

    def columns(self) -> tuple[array, array]:
        """(doc ids, tfs) of every live posting, doc-id ascending."""
        return self._columns

    def tf_map(self) -> dict[int, int]:
        return dict(zip(*self.columns()))

    def weight_map(
        self, ranking, n_docs: int, token_count, avg: float
    ) -> dict[int, float]:
        """``doc id -> ranking.term_weight(...)`` over the whole list.

        The weight column is computed by whichever query first walks
        the list and reused while ``(ranking, n_docs, avg)`` are the
        objects and numbers it was computed from.
        """
        doc_ids, tfs = self.columns()
        cached = self._weights
        if (
            cached is None
            or cached[0] is not ranking
            or cached[1:3] != (n_docs, avg)
        ):
            df = self.df
            term_weight = ranking.term_weight
            weights = array(
                "d",
                [
                    term_weight(tf, df, n_docs, token_count(doc_id), avg)
                    for doc_id, tf in zip(doc_ids, tfs)
                ],
            )
            cached = self._weights = (ranking, n_docs, avg, weights)
        return dict(zip(doc_ids, cached[3]))

    def probe(self, doc_id: int) -> int:
        """Term frequency of ``doc_id`` (0 if absent)."""
        doc_ids, tfs = self._columns
        slot = bisect.bisect_left(doc_ids, doc_id)
        if slot < len(doc_ids) and doc_ids[slot] == doc_id:
            return tfs[slot]
        return 0

    def block_bound(self, doc_id: int) -> None:
        """A plain list has no block column (see ``TermHandle``)."""
        return None


class InvertedIndex:
    """Term → postings, per field, plus derived lookup structures.

    Documents must be added in increasing id order (the store hands out
    dense ids, so building sequentially satisfies this).
    """

    def __init__(self) -> None:
        # field -> term -> list[Posting], postings in doc-id order.
        self._postings: dict[str, dict[str, list[Posting]]] = defaultdict(dict)
        # field -> term -> max per-document term frequency; maintained
        # incrementally (exact under the append-only contract — removal
        # rebuilds the index) and the source of per-term score upper
        # bounds for the pruned evaluator.
        self._max_tf: dict[str, dict[str, int]] = defaultdict(dict)
        # (field, language) -> surface word -> SummaryEntry.
        self._summary: dict[tuple[str, str], dict[str, SummaryEntry]] = defaultdict(dict)
        self._doc_count = 0
        # Bumped on every mutation; lets callers (the term matcher)
        # cache derived lookups and invalidate them precisely.
        self._generation = 0
        # (layout key, (field, term) -> TermState): replaced together
        # whenever the key moves, so a reader never pairs one key with
        # another key's states.
        self._term_states: tuple[object, dict[tuple[str, str], TermState]] = (
            None,
            {},
        )
        # (layout key, then three lazily filled per-field lookups:
        # sorted vocabulary, sorted reversed-term vocabulary — so
        # left-truncation is a bisect, mirroring terms_with_prefix — and
        # soundex code -> terms), replaced together like the term states.
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
        field_max_tf = self._max_tf[field]
        for term, positions in by_term.items():
            field_postings.setdefault(term, []).append(
                Posting(doc_id, tuple(sorted(positions)))
            )
            if len(positions) > field_max_tf.get(term, 0):
                field_max_tf[term] = len(positions)
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

    def postings(self, field: str, term: str) -> list[Posting]:
        """Postings for ``term`` in ``field`` (empty list if absent)."""
        return self._postings.get(field, {}).get(term, [])

    def has_postings(self, field: str, term: str) -> bool:
        """Whether ``term`` matches any document — without decoding one."""
        return bool(self._postings.get(field, {}).get(term))

    def _layout_key(self):
        """Moves whenever anything a term memo was derived from moves."""
        return self.generation

    def pruned_postings(self, field: str, term: str) -> TermState:
        """The term's warm state for the pruned evaluation driver.

        Memoized per (field, term) until :meth:`_layout_key` moves; the
        memo is bounded like every other per-term memo of an index.
        """
        key = self._layout_key()
        memo_key, states = self._term_states
        if memo_key != key:
            states = {}
            self._term_states = (key, states)
        state = states.get((field, term))
        if state is None:
            if len(states) >= TERM_MEMO_LIMIT:
                states.clear()
            state = states[(field, term)] = self._term_state(field, term)
        return state

    def _term_state(self, field: str, term: str) -> TermState:
        return TermState(
            self._postings.get(field, {}).get(term, ()),
            self._max_tf.get(field, {}).get(term, 0),
        )

    def document_frequency(self, field: str, term: str) -> int:
        return len(self.postings(field, term))

    def collection_frequency(self, field: str, term: str) -> int:
        return sum(p.term_frequency for p in self.postings(field, term))

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
