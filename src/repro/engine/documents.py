"""The fielded, flat document model and its store.

STARTS documents are "flat" — no nesting — and textual (Section 3 of
the paper).  A document is a bag of named fields; the Basic-1 fields
(title, author, body-of-text, ...) are conventions over those names.
The store assigns dense integer ids, tracks sizes and token counts
(``DocSize`` / ``DocCount`` in query results), and supports lookup by
linkage URL, which is how resources detect duplicate documents across
their member sources.
"""

from __future__ import annotations

from bisect import bisect_right
from collections.abc import Iterator, Mapping, Sequence
from dataclasses import dataclass, field
from itertools import chain

from repro.engine import fields as F

__all__ = ["CommittedSegments", "Document", "DocumentStore"]


@dataclass(frozen=True, slots=True)
class Document:
    """An immutable flat document.

    Attributes:
        linkage: the document's URL — its identity across sources.
        fields: field name → value.  Text fields hold prose; the
            date field holds ``YYYY-MM-DD``; ``languages`` holds a
            space-separated list of RFC-1766 tags; ``linkage-type``
            holds a MIME type; ``cross-reference-linkage`` holds a
            space-separated URL list.
        language: primary language tag of the document's text.
    """

    linkage: str
    fields: Mapping[str, str] = field(default_factory=dict)
    language: str = "en"

    def get(self, name: str, default: str = "") -> str:
        return self.fields.get(name, default)

    @property
    def title(self) -> str:
        return self.get(F.TITLE)

    @property
    def author(self) -> str:
        return self.get(F.AUTHOR)

    @property
    def body(self) -> str:
        return self.get(F.BODY_OF_TEXT)

    def text_fields(self) -> Iterator[tuple[str, str]]:
        """(field, value) pairs for the fields indexed as text."""
        for name in F.TEXT_FIELDS:
            value = self.fields.get(name)
            if value:
                yield name, value

    def size_kbytes(self) -> int:
        """Document size in whole KBytes, at least 1 (``DocSize``)."""
        # The UTF-8 length of the space-joined text fields without
        # building the string: an ASCII value's length is its byte
        # count; one space joins two values.
        sizes = [
            len(value) if value.isascii() else len(value.encode("utf-8"))
            for name in F.TEXT_FIELDS
            if (value := self.fields.get(name))
        ]
        return max(1, round((sum(sizes) + len(sizes) - 1) / 1024)) if sizes else 1


class CommittedSegments:
    """The committed half of a store, as an index and a document store
    read it beneath their mutable tail.

    This base has committed nothing: no segment readers, epoch 0.  It
    is the read side of a store with no directory,
    which :class:`~repro.storage.store.SegmentStore` extends with a
    directory, a manifest and the commits.  :class:`DocumentStore` and
    :class:`~repro.engine.index.InvertedIndex` built on their own sit
    over one.
    """

    readers: tuple = ()
    #: bumped on every commit (the layout moved).
    epoch = 0
    #: one past the highest committed doc id.
    document_ceiling = 0
    #: how many documents are committed.
    document_count = 0


#: Decoded-document memo bound (entries, not bytes); cleared wholesale
#: when full, like the term-matcher's expansion memo.
_DOC_MEMO_LIMIT = 4096


class DocumentStore:
    """Assigns dense ids to documents and answers per-document stats.

    The documents of ``store``'s committed segments plus a mutable
    tail of those added since, with ids above every committed one.
    Committed token counts and linkages load eagerly (two small
    columns); committed documents decode lazily from the docs mmap
    through a bounded memo, so a warm engine answers its first query
    without reading the bulk of the store.  With nothing committed,
    every read indexes the tail's own lists.
    """

    def __init__(self, store: CommittedSegments = CommittedSegments()) -> None:
        self._segment_store = store
        self._tail_base = store.document_ceiling
        self._documents: list[Document] = []
        self._token_counts: list[int] = []
        # Running sum of the tail's _token_counts, so
        # average_token_count() — on the per-term-weight hot path — is
        # O(1).  Token counts are integers, so the running sum is exact.
        self._token_total = 0
        # Memoized min_token_count(); invalidated on every write.
        self._min_token_memo: int | None = None
        self._by_linkage: dict[str, int] = {}
        self._doc_memo: dict[int, Document] = {}
        # (store epoch, readers, their doc bases) for ``_locate``.
        self._reader_bases: tuple[int, Sequence, Sequence[int]] = (-1, (), ())
        # Committed token counts sit on the ranking hot path (one lookup
        # per scored posting), so they must not pay a per-call segment
        # bisect.
        self._segment_counts: dict[int, int] = {}
        total = 0
        for reader in store.readers:
            for slot, (doc_id, linkage) in enumerate(
                zip(reader.doc_ids(), reader.linkages())
            ):
                self._by_linkage.setdefault(linkage, doc_id)
                count = reader.token_count_at(slot)
                self._segment_counts[doc_id] = count
                total += count
        self._segment_token_total = total

    # -- writes ------------------------------------------------------------

    def add(self, document: Document, token_count: int = 0) -> int:
        """Store ``document`` and return its id.

        ``token_count`` is the number of index tokens the analysis
        pipeline produced; the engine passes it in at index time so the
        store can answer ``DocCount`` without re-tokenizing.
        """
        doc_id = self._tail_base + len(self._documents)
        self._documents.append(document)
        self._token_counts.append(token_count)
        self._token_total += token_count
        self._min_token_memo = None
        # First linkage wins; duplicates within one source are unusual
        # but the resource layer relies on linkage lookups being stable.
        self._by_linkage.setdefault(document.linkage, doc_id)
        return doc_id

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
        return self._segment_store.document_count + len(self._documents)

    def __iter__(self) -> Iterator[Document]:
        for doc_id in self.ids():
            yield self[doc_id]

    def __getitem__(self, doc_id: int) -> Document:
        offset = doc_id - self._tail_base
        if offset >= 0:
            return self._documents[offset]
        memo = self._doc_memo
        document = memo.get(doc_id)
        if document is None:
            reader, slot = self._locate(doc_id)
            if reader is None:
                raise IndexError(f"no document with id {doc_id}")
            document = reader.document_at(slot)
            if len(memo) >= _DOC_MEMO_LIMIT:
                memo.clear()
            memo[doc_id] = document
        return document

    def ids(self) -> list[int]:
        """Every document id, ascending."""
        readers = self._segment_store.readers
        ids = [doc_id for reader in readers for doc_id in reader.doc_ids()]
        ids.extend(range(self._tail_base, self._tail_base + len(self._documents)))
        return ids

    def token_count(self, doc_id: int) -> int:
        """Number of index tokens in the document (``DocCount``)."""
        offset = doc_id - self._tail_base
        if offset >= 0:
            return self._token_counts[offset]
        count = self._segment_counts.get(doc_id)
        if count is None:
            raise IndexError(f"no document with id {doc_id}")
        return count

    def by_linkage(self, linkage: str) -> int | None:
        """The id of the document with this URL, if stored."""
        return self._by_linkage.get(linkage)

    def average_token_count(self) -> float:
        """Mean document length, used by length-normalizing scorers."""
        count = len(self)
        if not count:
            return 0.0
        return (self._segment_token_total + self._token_total) / count

    def min_token_count(self) -> int:
        """Smallest document length (0 for an empty store).

        Length-normalizing weights grow as documents shrink, so the
        collection-wide minimum is the doc-length input that makes
        ``weight_upper_bound`` a true upper bound over every document.
        """
        if self._min_token_memo is None:
            self._min_token_memo = min(
                chain(self._segment_counts.values(), self._token_counts), default=0
            )
        return self._min_token_memo
