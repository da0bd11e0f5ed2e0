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

from collections.abc import Iterator, Mapping
from dataclasses import dataclass, field

from repro.engine import fields as F

__all__ = ["Document", "DocumentStore"]


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


class DocumentStore:
    """Assigns dense ids to documents and answers per-document stats.

    The store is append-only, mirroring the paper's stateless-source
    model where collections change only between metadata exports.
    """

    def __init__(self) -> None:
        self._documents: list[Document] = []
        self._by_linkage: dict[str, int] = {}
        self._token_counts: list[int] = []
        # Running sum of _token_counts, so average_token_count() — on
        # the per-term-weight hot path — is O(1).  Token counts are
        # integers, so the running sum is exact.
        self._token_total = 0
        # Memoized min_token_count(); invalidated on every write.
        self._min_token_memo: int | None = None

    def add(self, document: Document, token_count: int = 0) -> int:
        """Store ``document`` and return its id.

        ``token_count`` is the number of index tokens the analysis
        pipeline produced; the engine passes it in at index time so the
        store can answer ``DocCount`` without re-tokenizing.
        """
        doc_id = len(self._documents)
        self._documents.append(document)
        self._token_counts.append(token_count)
        self._token_total += token_count
        self._min_token_memo = None
        # First linkage wins; duplicates within one source are unusual
        # but the resource layer relies on linkage lookups being stable.
        self._by_linkage.setdefault(document.linkage, doc_id)
        return doc_id

    def __len__(self) -> int:
        return len(self._documents)

    def __iter__(self) -> Iterator[Document]:
        return iter(self._documents)

    def __getitem__(self, doc_id: int) -> Document:
        return self._documents[doc_id]

    def ids(self) -> range:
        return range(len(self._documents))

    def token_count(self, doc_id: int) -> int:
        """Number of index tokens in the document (``DocCount``)."""
        return self._token_counts[doc_id]

    def by_linkage(self, linkage: str) -> int | None:
        """The id of the document with this URL, if stored."""
        return self._by_linkage.get(linkage)

    def average_token_count(self) -> float:
        """Mean document length, used by length-normalizing scorers."""
        if not self._token_counts:
            return 0.0
        return self._token_total / len(self._token_counts)

    def min_token_count(self) -> int:
        """Smallest document length (0 for an empty store).

        Length-normalizing weights grow as documents shrink, so the
        collection-wide minimum is the doc-length input that makes
        ``weight_upper_bound`` a true upper bound over every document.
        """
        if self._min_token_memo is None:
            self._min_token_memo = min(self._token_counts, default=0)
        return self._min_token_memo
