"""Segment-backed views satisfying the in-memory engine contracts.

:class:`SegmentedIndex` subclasses :class:`InvertedIndex` and keeps
the inherited per-term records as its **mutable tail**:
``add_field_tokens`` lands there unchanged, a flush writes their columns
as they are, and every read composes (committed segments, in doc-base
order) + (tail).  Because segments cover disjoint ascending doc-id
ranges and the tail sits above them all, concatenating per-segment
columns reproduces exactly the doc-id-ordered columns the in-memory
index serves — term-at-a-time evaluation, the term matcher, prox
merging and summary export all run bit-identically on either backend
(``storage="memory"`` stays the oracle).

:class:`SegmentedDocumentStore` is the same composition for stored
fields: token counts and linkages are loaded eagerly (two small
columns), documents decode lazily from the docs mmap with a bounded
memo, so a warmed engine answers its first query without ever reading
the bulk of the store.

Every reader reaches a term through one memoized accessor
(:class:`_SegmentedTermAccessor`) that lives until the store's layout
moves — a flush, merge or tombstone commit bumps its ``epoch`` — and
follows the tail's record as documents are added, so nothing decoded
from a segment is thrown away by indexing.  It scans positionless
doc-id/tf columns straight from the segments and decodes positions
only when ``prox`` asks, so a source that only ranks decodes none.
Vocabulary and summary memos key on the tail's mutation generation
plus the epoch; tombstone commits also bump the *content* epoch, which
feeds the inherited ``generation`` so term-matcher expansion memos
invalidate exactly as they do for in-memory mutation.
"""

from __future__ import annotations

import heapq
from array import array
from bisect import bisect_right
from itertools import chain

from repro.engine.documents import Document, DocumentStore
from repro.engine.index import InvertedIndex, SummaryEntry, TermState
from repro.storage.segment import fold_summary_sections
from repro.storage.store import SegmentStore

__all__ = ["SegmentedIndex", "SegmentedDocumentStore"]

#: Entry cap of the per-(field, term) accessor memo; a memo that fills
#: up is cleared wholesale.
_ACCESSOR_MEMO_LIMIT = 65536


class _NoPostings:
    """Routing target for ids no segment of the term covers."""

    @staticmethod
    def block_bound(doc_id: int) -> tuple[int, int]:
        # The term cannot match the id, which (0, 0) encodes exactly.
        return (0, 0)

    @staticmethod
    def probe(doc_id: int) -> int:
        return 0


class _SegmentedTermAccessor(TermState):
    """One term across segments + tail: the :class:`TermState`
    contract every reader uses.

    The pruned driver's contract (df / max tf / min length metadata,
    point probes, per-document block bounds) routed by doc-id range:
    committed ids resolve through each segment's
    :class:`~repro.storage.segment.TermHandle` (block-max column, one
    block decoded and kept per probe miss), tail ids through the tail's
    own record.  The segments' columns are scanned — positions skipped,
    tombstoned ids dropped — when a reader first walks the whole list,
    and their positions decoded the first time ``prox`` asks; both are
    kept beside the handles until the layout moves.  :meth:`follow`
    counts the tail's record in, so the accessor outlives tail growth.
    """

    __slots__ = ("min_len", "has_blocks", "_handles", "_bases", "_live", "_tail",
                 "_tail_floor", "_segment_df", "_segment_tf_bound",
                 "_segment_min_len", "_segment_columns", "_segment_positions")

    def __init__(
        self, store: SegmentStore, field: str, term: str, tail: TermState
    ) -> None:
        live = store.live if store.tombstones else None
        self._live = live
        self._handles: list[tuple[int, int, object]] = []
        df = tf_bound = 0
        lengths: list[int | None] = []
        for reader in store.readers:
            handle = reader.term_handle(field, term)
            if handle is None:
                continue
            self._handles.append((reader.doc_base, reader.doc_ceiling, handle))
            df += handle.document_count(live)
            tf_bound = max(tf_bound, handle.max_term_frequency())
            # None for a version-1 segment: no block column, no length bound.
            lengths.append(handle.min_doc_length())
        self._bases = [base for base, _, _ in self._handles]
        self._segment_columns = self._segment_positions = self._weights = None
        self._segment_df = df
        # Tombstones may leave max_tf stale-high (the maximal document
        # was deleted); that only loosens the bound.
        self._segment_tf_bound = tf_bound
        self._segment_min_len = None if None in lengths or not lengths else min(lengths)
        self.has_blocks = any(handle.blocks is not None for _, _, handle in self._handles)
        self.follow(tail)

    def follow(self, tail: TermState) -> None:
        """Count the tail's record (the term's postings above every
        segment) into df, max tf, the length bound and routing."""
        self._tail = tail
        self._tail_floor = tail._doc_ids[0] if tail.df else None
        self.df = self._segment_df + tail.df
        self.max_tf = max(self._segment_tf_bound, tail.max_tf)
        # The term-level length bound is the min over every source of
        # the term's documents.  A non-empty tail has no cheap per-doc
        # length column (nor does a v1 segment), so its presence drops
        # the bound to None — the driver then falls back to the
        # store-wide minimum, which is looser but still valid.
        self.min_len = None if tail.df else self._segment_min_len

    def columns(self):
        columns = self._segment_columns
        if columns is None:  # built locally, published with one store
            doc_ids, tfs = array("q"), array("I")
            for _, _, handle in self._handles:
                segment_ids, segment_tfs = handle.scan(self._live)
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
            for _, _, handle in self._handles:
                for column, decoded in zip(columns, handle.positions(self._live)):
                    column.extend(decoded)
            self._segment_positions = columns
        if not self._tail.df:
            return columns
        return tuple(
            column + tail for column, tail in zip(columns, self._tail.positions())
        )

    def route(self, doc_id: int):
        """Whatever answers ``block_bound``/``probe`` for ``doc_id``.

        The driver routes once per candidate and asks the target both
        questions; its candidates come from live-filtered columns, so
        they need no tombstone check.
        """
        position = bisect_right(self._bases, doc_id) - 1
        if position >= 0:
            _, ceiling, handle = self._handles[position]
            if doc_id < ceiling:
                return handle
        if self._tail_floor is not None and doc_id >= self._tail_floor:
            return self._tail
        return _NoPostings

    def probe(self, doc_id: int) -> int:
        live = self._live
        if live is not None and not live(doc_id):
            return 0
        return self.route(doc_id).probe(doc_id)


#: Decoded-document memo bound (entries, not bytes); cleared wholesale
#: when full, like the term-matcher's expansion memo.
_DOC_MEMO_LIMIT = 4096


class SegmentedIndex(InvertedIndex):
    """segments + mutable tail, behind the ``InvertedIndex`` surface."""

    def __init__(self, store: SegmentStore) -> None:
        super().__init__()
        self._segment_store = store
        # doc ids continue above everything already committed.
        self._doc_count = store.document_ceiling
        # (store epoch, (field, term) -> accessor): replaced together
        # whenever a commit moves the layout, so a reader never pairs
        # one layout's handles with another's.
        self._accessors: tuple[int, dict[tuple[str, str], _SegmentedTermAccessor]]
        self._accessors = (-1, {})
        self._summary_memo: tuple[tuple[int, int], list] | None = None

    # -- generations -------------------------------------------------------

    @property
    def generation(self) -> int:
        """Mutation counter covering the tail *and* committed content."""
        return self._generation + self._segment_store.content_epoch

    def _layout_key(self) -> tuple[int, int]:
        return (self.generation, self._segment_store.epoch)

    # -- tail flushing -----------------------------------------------------

    def commit_tail(self, rows: list[tuple[int, Document, int]]) -> None:
        """Commit the mutable tail (with its document ``rows``) as one
        segment, then drop it.

        The commit is synchronous and writes the tail's own columns;
        the committed segment then serves exactly what the tail held,
        so observable content is unchanged and only layout memos
        refresh (via the store epoch bumped by the commit).
        """
        self._segment_store.commit_segment(
            rows, self.segment_columns(), super().summary_sections()
        )
        self._postings.clear()
        self._summary.clear()

    # -- reads: postings ---------------------------------------------------

    def pruned_postings(self, field: str, term: str) -> _SegmentedTermAccessor:
        """The term's accessor, memoized until the store's layout moves
        and brought up to the tail's record on every lookup."""
        tail = super().pruned_postings(field, term)
        epoch = self._segment_store.epoch
        memo_epoch, accessors = self._accessors
        if memo_epoch != epoch:
            accessors = {}
            self._accessors = (epoch, accessors)
        accessor = accessors.get((field, term))
        if accessor is None:
            if len(accessors) >= _ACCESSOR_MEMO_LIMIT:
                accessors.clear()
            accessor = accessors[(field, term)] = _SegmentedTermAccessor(
                self._segment_store, field, term, tail
            )
        else:
            accessor.follow(tail)
        return accessor

    # -- reads: vocabulary and fields --------------------------------------

    def fields(self) -> list[str]:
        names: set[str] = set(self._postings)
        for reader in self._segment_store.readers:
            names.update(reader.fields())
        return sorted(names)

    def _sorted_terms(self, field: str) -> list[str]:
        lists = [reader.vocabulary(field) for reader in self._segment_store.readers]
        lists.append(super()._sorted_terms(field))
        vocab: list[str] = []
        previous = None
        for term in heapq.merge(*lists):
            if term != previous:
                vocab.append(term)
                previous = term
        return vocab

    # -- reads: counts and summaries ---------------------------------------

    @property
    def document_count(self) -> int:
        return max(self._doc_count, self._segment_store.document_ceiling)

    def summary_sections(self) -> list[tuple[str, str, dict[str, SummaryEntry]]]:
        key = self._layout_key()
        memo = self._summary_memo
        if memo is not None and memo[0] == key:
            return memo[1]
        sections = fold_summary_sections(
            [
                *(reader.summary_sections() for reader in self._segment_store.readers),
                super().summary_sections(),
            ]
        )
        self._summary_memo = (key, sections)
        return sections


class SegmentedDocumentStore(DocumentStore):
    """segments + mutable tail, behind the ``DocumentStore`` surface."""

    def __init__(self, store: SegmentStore) -> None:
        super().__init__()
        self._segment_store = store
        self._tail_base = store.document_ceiling
        self._doc_memo: dict[int, Document] = {}
        # (store epoch, readers, their doc bases) for ``_locate``.
        self._reader_bases: tuple[int, list, list[int]] = (-1, [], [])
        # Eager small columns: linkage -> id and token counts across
        # every segment.  Token counts sit on the ranking hot path (one
        # lookup per scored posting), so they must not pay a per-call
        # segment bisect.
        self._segment_counts: dict[int, int] = {}
        total = 0
        for reader in store.readers:
            for slot, (doc_id, linkage) in enumerate(
                zip(reader.doc_ids(), reader.linkages())
            ):
                if store.live(doc_id):
                    self._by_linkage.setdefault(linkage, doc_id)
                    count = reader.token_count_at(slot)
                    self._segment_counts[doc_id] = count
                    total += count
        self._segment_token_total = total

    # -- tail flushing -----------------------------------------------------

    def tail_rows(self) -> list[tuple[int, Document, int]]:
        """(global id, document, token count) rows awaiting a flush."""
        return [
            (self._tail_base + offset, document, self._token_counts[offset])
            for offset, document in enumerate(self._documents)
        ]

    def absorb_flush(self) -> None:
        """Drop the tail after the store committed it as a segment."""
        for offset, count in enumerate(self._token_counts):
            self._segment_counts[self._tail_base + offset] = count
        self._segment_token_total += self._token_total
        self._token_total = 0
        self._tail_base += len(self._documents)
        self._documents.clear()
        self._token_counts.clear()

    # -- writes ------------------------------------------------------------

    def add(self, document: Document, token_count: int = 0) -> int:
        doc_id = self._tail_base + len(self._documents)
        self._documents.append(document)
        self._token_counts.append(token_count)
        self._token_total += token_count
        self._by_linkage.setdefault(document.linkage, doc_id)
        self._min_token_memo = None
        return doc_id

    def note_tombstones(self, doc_ids) -> None:
        """Adjust linkage/statistics for freshly tombstoned doc ids."""
        self._min_token_memo = None
        for doc_id in doc_ids:
            reader, slot = self._locate(doc_id)
            if reader is None:
                continue
            self._segment_token_total -= reader.token_count_at(slot)
            self._segment_counts.pop(doc_id, None)
            document = self._doc_memo.get(doc_id)
            if document is None:
                document = reader.document_at(slot)
            if self._by_linkage.get(document.linkage) == doc_id:
                del self._by_linkage[document.linkage]
            self._doc_memo.pop(doc_id, None)

    # -- reads -------------------------------------------------------------

    def _locate(self, doc_id: int):
        store = self._segment_store
        epoch, readers, bases = self._reader_bases
        if epoch != store.epoch:
            # Read the epoch first: a commit racing this refresh leaves
            # a stale epoch beside newer readers, and the next call
            # simply refreshes again.
            epoch, readers = store.epoch, store.readers
            bases = [reader.doc_base for reader in readers]
            self._reader_bases = (epoch, readers, bases)
        position = bisect_right(bases, doc_id) - 1
        if position < 0:
            return None, None
        reader = readers[position]
        slot = reader.slot_of(doc_id)
        if slot is None:
            return None, None
        return reader, slot

    def __len__(self) -> int:
        return self._segment_store.live_doc_count() + len(self._documents)

    def __getitem__(self, doc_id: int) -> Document:
        offset = doc_id - self._tail_base
        if offset >= 0:
            return self._documents[offset]
        memo = self._doc_memo
        document = memo.get(doc_id)
        if document is None:
            reader, slot = self._locate(doc_id)
            if reader is None or not self._segment_store.live(doc_id):
                raise IndexError(f"no live document with id {doc_id}")
            document = reader.document_at(slot)
            if len(memo) >= _DOC_MEMO_LIMIT:
                memo.clear()
            memo[doc_id] = document
        return document

    def __iter__(self):
        for doc_id in self.ids():
            yield self[doc_id]

    def ids(self) -> list[int]:  # type: ignore[override]
        store = self._segment_store
        live: list[int] = []
        for reader in store.readers:
            if store.tombstones:
                live.extend(
                    doc_id for doc_id in reader.doc_ids() if store.live(doc_id)
                )
            else:
                live.extend(reader.doc_ids())
        live.extend(range(self._tail_base, self._tail_base + len(self._documents)))
        return live

    def token_count(self, doc_id: int) -> int:
        offset = doc_id - self._tail_base
        if offset >= 0:
            return self._token_counts[offset]
        count = self._segment_counts.get(doc_id)
        if count is not None:
            return count
        # not in the eager column: tombstoned, or not covered at all
        reader, slot = self._locate(doc_id)
        if reader is None:
            raise IndexError(f"no live document with id {doc_id}")
        return reader.token_count_at(slot)

    def by_linkage(self, linkage: str) -> int | None:
        return self._by_linkage.get(linkage)

    def average_token_count(self) -> float:
        live = len(self)
        if not live:
            return 0.0
        return (self._segment_token_total + self._token_total) / live

    def min_token_count(self) -> int:
        """Smallest live token count across segments and the tail.

        Memoized like the in-memory store's; writes and tombstone
        commits invalidate.  Used only as a conservative length floor
        for pruning upper bounds.
        """
        if self._min_token_memo is None:
            self._min_token_memo = min(
                chain(self._segment_counts.values(), self._token_counts), default=0
            )
        return self._min_token_memo
