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

from repro.engine.documents import CommittedSegments, Document
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


def fold_summary_sections(
    section_lists,
) -> list[tuple[str, str, dict[str, SummaryEntry]]]:
    """Sum ``(field, language, word → stats)`` sections of disjoint
    document sets (segments, a tail) into one, sorted by (field,
    language); a word keeps the position it first appeared at."""
    folded: dict[tuple[str, str], dict[str, SummaryEntry]] = {}
    for sections in section_lists:
        for field_name, language, words in sections:
            bucket = folded.setdefault((field_name, language), {})
            for word, entry in words.items():
                total = bucket.setdefault(word, SummaryEntry())
                total.postings += entry.postings
                total.document_frequency += entry.document_frequency
    return [
        (field, language, words)
        for (field, language), words in sorted(folded.items())
    ]


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

    def spans(self):
        """The postings as an ascending run of ``(last id, bound,
        columns)`` spans: the pruned driver's one way through them.

        A span answers for every doc id above the previous span's last
        id up to its own.  ``bound`` is ``(max tf, min doc length)`` over
        the span's postings, or None where there is none; ``columns()``
        returns its (doc ids, tfs), decoded on first use.  A record is
        one span with no bound.
        """
        return ((_LAST_DOC_ID, None, self.columns),)

    def probe(self, doc_id: int) -> int:
        """Term frequency of the live document ``doc_id`` (0 if the term
        is absent from it), read off the one span that covers it."""
        doc_ids, tfs = next(
            columns for last_id, _, columns in self.spans() if last_id >= doc_id
        )()
        slot = bisect.bisect_left(doc_ids, doc_id)
        return tfs[slot] if slot < len(doc_ids) and doc_ids[slot] == doc_id else 0


#: The last id of the span that reaches past every document.
_LAST_DOC_ID = 2**63 - 1
#: The record of every absent term: never appended to.
_NO_POSTINGS = TermState(array("q"), array("I"), array("I"))


class _SegmentedTermAccessor(TermState):
    """One term across segments + tail: the :class:`TermState`
    contract every reader uses.

    The pruned driver's contract (df / max tf / min length metadata and
    the run of spans) over doc-id ranges: each segment's
    :class:`~repro.storage.segment.TermHandle` contributes its blocks
    (block-max bounds, each block decoded once, on first use), the
    tail's own record the last span.  The segments' columns are scanned
    — positions skipped — when a reader first walks the whole list, and
    their positions decoded the first time ``prox`` asks; both are kept
    beside the handles until the layout moves.  :meth:`follow` counts
    the tail's record in, so the accessor outlives tail growth.
    """

    __slots__ = ("min_len", "_gap", "_handles", "_tail",
                 "_segment_df", "_segment_tf_bound",
                 "_segment_min_len", "_segment_columns", "_segment_positions")

    def __init__(
        self, store: CommittedSegments, field: str, term: str, tail: TermState
    ) -> None:
        self._handles: list[tuple[int, object]] = []
        df = tf_bound = 0
        lengths: list[int] = []
        for reader in store.readers:
            handle = reader.term_handle(field, term)
            if handle is None:
                continue
            self._handles.append((reader.doc_base, handle))
            df += handle.document_count()
            tf_bound = max(tf_bound, handle.max_term_frequency())
            lengths.append(handle.min_doc_length())
        self._segment_columns = self._segment_positions = self._weights = None
        self._segment_df = df
        self._segment_tf_bound = tf_bound
        self._segment_min_len = min(lengths, default=None)
        # The bound of an id range no block of the term covers: (0, 0),
        # "cannot match", once some segment holds the term; a term only
        # the tail holds bounds nothing.
        self._gap = (0, 0) if self._handles else None
        self.follow(tail)

    def follow(self, tail: TermState) -> None:
        """Count the tail's record (the term's postings above every
        segment) into df, max tf, the length bound and the spans."""
        self._tail = tail
        self.df = self._segment_df + tail.df
        self.max_tf = max(self._segment_tf_bound, tail.max_tf)
        # The term-level length bound is the min over every source of
        # the term's documents.  A non-empty tail has no cheap per-doc
        # length column, so its presence drops the bound to None — the
        # driver then falls back to the store-wide minimum, which is
        # looser but still valid.
        self.min_len = None if tail.df else self._segment_min_len

    def columns(self):
        columns = self._segment_columns
        if columns is None:  # built locally, published with one store
            doc_ids, tfs = array("q"), array("I")
            for _, handle in self._handles:
                segment_ids, segment_tfs = handle.scan()
                doc_ids.extend(segment_ids)
                tfs.extend(segment_tfs)
            columns = self._segment_columns = (doc_ids, tfs)
        if not self._tail.df:
            return columns
        tail_ids, tail_tfs = self._tail.columns()
        return columns[0] + tail_ids, columns[1] + tail_tfs

    def positions(self):
        columns = self._segment_positions
        if columns is None:
            columns = (array("q"), array("I"), array("I"))
            for _, handle in self._handles:
                for column, decoded in zip(columns, handle.positions()):
                    column.extend(decoded)
            self._segment_positions = columns
        if not self._tail.df:
            return columns
        return tuple(
            column + tail for column, tail in zip(columns, self._tail.positions())
        )

    def spans(self):
        """Each segment's blocks (``TermHandle.spans``) in doc-base
        order, then the tail's record; every id range between them is
        one empty span with the gap bound.
        """
        gap = self._gap
        for base, handle in self._handles:
            yield base - 1, gap, _NO_POSTINGS.columns
            yield from handle.spans()
        tail = self._tail
        if tail.df:
            yield tail._doc_ids[0] - 1, gap, _NO_POSTINGS.columns
            yield from tail.spans()
        else:
            yield _LAST_DOC_ID, gap, _NO_POSTINGS.columns


#: Entry cap of the per-(field, term) accessor memo; a memo that fills
#: up is cleared wholesale.
_ACCESSOR_MEMO_LIMIT = 65536


class InvertedIndex:
    """Term → postings, per field, plus derived lookup structures.

    The committed segments of ``store`` plus the **mutable tail**: one
    :class:`TermState` record per (field, term) that
    :meth:`add_field_tokens` appends to and :meth:`commit_tail` writes
    as it is.  Every read composes (segments, in doc-base order) +
    (tail).  Segments cover disjoint ascending doc-id ranges and the
    tail sits above them all, so concatenating their columns gives
    exactly the columns one record of the whole history would hold.
    With nothing committed, a read returns the tail's own record.

    Every reader reaches a term through one accessor
    (:class:`_SegmentedTermAccessor`) memoized until the store's layout
    moves — every commit bumps its ``epoch`` — that follows the tail's
    record as documents are added.  Vocabulary and summary memos key on
    the tail's mutation generation plus the epoch.  A commit never
    changes content under an index: a flush or merge rewrites what was
    there, and a replacement is served by a new index (the engine
    reopens over the replaced store), so the tail's generation alone
    invalidates the term matcher's expansion memo.

    Documents must be added in increasing id order, above every
    committed one (the document store hands out such ids).
    """

    def __init__(self, store: CommittedSegments = CommittedSegments()) -> None:
        self._segment_store = store
        # field -> term -> TermState, the tail's posting columns.
        self._postings: dict[str, dict[str, TermState]] = defaultdict(dict)
        # (field, language) -> surface word -> SummaryEntry, the tail's.
        self._summary: dict[tuple[str, str], dict[str, SummaryEntry]] = defaultdict(dict)
        # doc ids continue above everything already committed.
        self._doc_count = store.document_ceiling
        # Bumped on every tail mutation; it lets callers (the term
        # matcher) cache derived lookups and invalidate them precisely.
        self._generation = 0
        # (layout key, then three lazily filled per-field lookups:
        # sorted vocabulary, sorted reversed-term vocabulary — so
        # left-truncation is a bisect, mirroring terms_with_prefix — and
        # soundex code -> terms), replaced together whenever the key moves.
        self._vocab_memo: tuple[object, dict, dict, dict] = (None, {}, {}, {})
        # (store epoch, (field, term) -> accessor): replaced together
        # whenever a commit moves the layout, so a reader never pairs
        # one layout's handles with another's.
        self._accessors: tuple[int, dict[tuple[str, str], _SegmentedTermAccessor]]
        self._accessors = (-1, {})
        self._summary_memo: tuple[tuple[int, int], list] | None = None

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

    # -- tail flushing -----------------------------------------------------

    def commit_tail(self, rows: list[tuple[int, Document, int]]) -> None:
        """Commit the mutable tail (with its document ``rows``) as one
        segment, then drop it.

        The commit writes the tail's own columns; the committed segment
        then serves exactly what the tail held, so observable content is
        unchanged and only layout memos refresh (via the store epoch
        bumped by the commit).
        """
        self._segment_store.commit_segment(
            rows, self.segment_columns(), self._tail_sections()
        )
        self._postings.clear()
        self._summary.clear()

    # -- basic lookups ---------------------------------------------------

    @property
    def document_count(self) -> int:
        return max(self._doc_count, self._segment_store.document_ceiling)

    @property
    def generation(self) -> int:
        """Mutation counter of the index's content (cache-invalidation
        token)."""
        return self._generation

    def fields(self) -> list[str]:
        names = set(self._postings)
        for reader in self._segment_store.readers:
            names.update(reader.fields())
        return sorted(names)

    def pruned_postings(self, field: str, term: str) -> TermState:
        """The term's postings: the one way every reader reaches them.

        With nothing committed this is the record ``add_field_tokens``
        appends to, returned as it is (an empty one for an absent term);
        otherwise the term's accessor, memoized until the store's layout
        moves and brought up to the tail's record on every lookup.
        """
        tail = self._postings.get(field, {}).get(term, _NO_POSTINGS)
        store = self._segment_store
        if not store.readers:
            return tail
        epoch = store.epoch
        memo_epoch, accessors = self._accessors
        if memo_epoch != epoch:
            accessors = {}
            self._accessors = (epoch, accessors)
        accessor = accessors.get((field, term))
        if accessor is None:
            if len(accessors) >= _ACCESSOR_MEMO_LIMIT:
                accessors.clear()
            accessor = accessors[(field, term)] = _SegmentedTermAccessor(
                store, field, term, tail
            )
        else:
            accessor.follow(tail)
        return accessor

    def has_postings(self, field: str, term: str) -> bool:
        """Whether ``term`` matches any document — nothing decoded."""
        return self.pruned_postings(field, term).df > 0

    def segment_columns(self) -> dict[str, dict[str, tuple[array, array, array]]]:
        """``field → term → (doc ids, tfs, positions)``: what a flush
        writes, the tail records' own columns."""
        return {
            field: {term: record.positions() for term, record in terms.items()}
            for field, terms in self._postings.items()
        }

    def _layout_key(self) -> tuple[int, int]:
        """Moves whenever anything a vocabulary memo was derived from moves."""
        return (self.generation, self._segment_store.epoch)

    def _vocab_memos(self) -> tuple[dict, dict, dict]:
        """This layout's (sorted, reversed, soundex) per-field lookups."""
        key = self._layout_key()
        memo = self._vocab_memo
        if memo[0] != key:
            memo = self._vocab_memo = (key, {}, {}, {})
        return memo[1:]

    def _sorted_terms(self, field: str) -> list[str]:
        terms = set(self._postings.get(field, ()))
        for reader in self._segment_store.readers:
            terms.update(reader.vocabulary(field))
        return sorted(terms)

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
        Committed sections are folded with the tail's once per layout.
        """
        readers = self._segment_store.readers
        if not readers:
            return self._tail_sections()
        key = self._layout_key()
        memo = self._summary_memo
        if memo is None or memo[0] != key:
            sections = fold_summary_sections(
                [*(reader.summary_sections() for reader in readers), self._tail_sections()]
            )
            memo = self._summary_memo = (key, sections)
        return memo[1]

    def _tail_sections(self) -> list[tuple[str, str, dict[str, SummaryEntry]]]:
        return [
            (field, language, dict(words))
            for (field, language), words in sorted(self._summary.items())
        ]
