"""The SOIF result decode as it stood before the single-pass rewrite.

``_Reader`` (three cursor methods and a one-byte slice + ``isspace()``
per byte), the eight-``get`` ``SQRDocument.from_soif`` and the
parse-every-line ``TermStats.parse`` are moved here verbatim from
``repro/starts/soif.py`` and ``repro/starts/results.py``; only the
``cls`` receivers became the class names and the entry points got an
``oracle_`` prefix.  ``tests/starts/test_soif_equivalence.py`` holds
the production decode to these.

Known, deliberate divergences of the production decode (it types what
this one lets escape): non-UTF-8 bytes raise ``UnicodeDecodeError``
here, non-numeric ``RawScore``/``DocSize``/``DocCount``/``NumDocSOIFs``
raise bare ``ValueError``, and a bad ``Actual*Expression`` leaks
``QuerySyntaxError``.
"""

from __future__ import annotations

from repro.starts.ast import STerm
from repro.starts.errors import QuerySyntaxError, SoifSyntaxError
from repro.starts.parser import parse_expression
from repro.starts.query import PROTOCOL_VERSION
from repro.starts.results import SQRDocument, SQResults, TermStats
from repro.starts.soif import SoifObject

__all__ = [
    "oracle_parse_soif",
    "oracle_parse_soif_stream",
    "oracle_term_stats_parse",
    "oracle_document_from_soif",
    "oracle_results_from_soif_stream",
]

_RESERVED_DOC_ATTRIBUTES = frozenset(
    ("version", "rawscore", "sources", "termstats", "docsize", "doccount")
)


class _Reader:
    """Byte-level SOIF reader (byte counts refer to UTF-8 bytes)."""

    def __init__(self, data: bytes) -> None:
        self._data = data
        self._pos = 0

    def at_end(self) -> bool:
        self._skip_whitespace()
        return self._pos >= len(self._data)

    def _skip_whitespace(self) -> None:
        while self._pos < len(self._data) and self._data[self._pos : self._pos + 1].isspace():
            self._pos += 1

    def _take(self, count: int) -> bytes:
        if self._pos + count > len(self._data):
            raise SoifSyntaxError("truncated SOIF value")
        chunk = self._data[self._pos : self._pos + count]
        self._pos += count
        return chunk

    def _take_until(self, delimiter: bytes) -> bytes:
        index = self._data.find(delimiter, self._pos)
        if index < 0:
            raise SoifSyntaxError(f"missing {delimiter!r} in SOIF input")
        chunk = self._data[self._pos : index]
        self._pos = index + len(delimiter)
        return chunk

    def read_object(self) -> SoifObject:
        self._skip_whitespace()
        if self._take(1) != b"@":
            raise SoifSyntaxError("SOIF object must start with '@'")
        template = self._take_until(b"{").strip().decode("utf-8")
        if not template:
            raise SoifSyntaxError("empty SOIF template name")
        pairs: list[tuple[str, str]] = []
        while True:
            self._skip_whitespace()
            if self._pos >= len(self._data):
                raise SoifSyntaxError(f"unterminated SOIF object @{template}")
            if self._data[self._pos : self._pos + 1] == b"}":
                self._pos += 1
                return SoifObject(template, pairs)
            name = self._take_until(b"{").strip().decode("utf-8")
            count_text = self._take_until(b"}").strip().decode("utf-8")
            try:
                count = int(count_text)
            except ValueError:
                raise SoifSyntaxError(
                    f"bad byte count {count_text!r} for attribute {name!r}"
                ) from None
            if count < 0:
                raise SoifSyntaxError(
                    f"negative byte count for attribute {name!r}"
                )
            if self._take(1) != b":":
                raise SoifSyntaxError(f"expected ':' after {name}{{{count}}}")
            # Exactly one space conventionally follows the colon; accept
            # its absence for robustness.
            if self._data[self._pos : self._pos + 1] == b" ":
                self._pos += 1
            value = self._take(count).decode("utf-8")
            pairs.append((name, value))


def oracle_parse_soif(text: str | bytes) -> SoifObject:
    data = text.encode("utf-8") if isinstance(text, str) else text
    reader = _Reader(data)
    obj = reader.read_object()
    if not reader.at_end():
        raise SoifSyntaxError("trailing data after SOIF object")
    return obj


def oracle_parse_soif_stream(text: str | bytes) -> list[SoifObject]:
    data = text.encode("utf-8") if isinstance(text, str) else text
    reader = _Reader(data)
    objects: list[SoifObject] = []
    while not reader.at_end():
        objects.append(reader.read_object())
    return objects


def oracle_term_stats_parse(line: str) -> TermStats:
    line = line.strip()
    # The term serialization ends at the last ')' or '"'; the three
    # numbers follow.
    parts = line.rsplit(None, 3)
    if len(parts) != 4:
        raise SoifSyntaxError(f"bad TermStats line: {line!r}")
    term_text, tf_text, weight_text, df_text = parts
    try:
        node = parse_expression(term_text)
        tf, weight, df = int(tf_text), float(weight_text), int(df_text)
    except (QuerySyntaxError, ValueError) as error:
        raise SoifSyntaxError(f"bad TermStats line: {line!r} ({error})") from error
    if not isinstance(node, STerm):
        raise SoifSyntaxError(f"TermStats entry is not a term: {term_text!r}")
    return TermStats(node, tf, weight, df)


def oracle_document_from_soif(obj: SoifObject) -> SQRDocument:
    if obj.template != "SQRDocument":
        raise SoifSyntaxError(f"expected @SQRDocument, got @{obj.template}")
    linkage = obj.get("linkage")
    if linkage is None:
        raise SoifSyntaxError("SQRDocument without linkage")
    stats_text = obj.get("TermStats", "") or ""
    term_stats = tuple(
        oracle_term_stats_parse(line) for line in stats_text.splitlines() if line.strip()
    )
    fields = {
        name: value
        for name, value in obj.pairs()
        if name.lower() not in _RESERVED_DOC_ATTRIBUTES and name.lower() != "linkage"
    }
    return SQRDocument(
        linkage=linkage,
        raw_score=float(obj.get("RawScore", "0") or 0),
        sources=tuple((obj.get("Sources") or "").split()),
        fields=fields,
        term_stats=term_stats,
        doc_size=int(obj.get("DocSize", "1") or 1),
        doc_count=int(obj.get("DocCount", "0") or 0),
        version=obj.get("Version", PROTOCOL_VERSION) or PROTOCOL_VERSION,
    )


def oracle_results_from_soif_stream(text: str | bytes) -> SQResults:
    objects = oracle_parse_soif_stream(text)
    if not objects or objects[0].template != "SQResults":
        raise SoifSyntaxError("result stream must start with @SQResults")
    header = objects[0]
    documents = tuple(oracle_document_from_soif(obj) for obj in objects[1:])
    declared = header.get("NumDocSOIFs")
    if declared is not None and int(declared) != len(documents):
        raise SoifSyntaxError(
            f"NumDocSOIFs says {declared} but stream has {len(documents)}"
        )
    return SQResults(
        sources=tuple((header.get("Sources") or "").split()),
        actual_filter_expression=parse_expression(
            header.get("ActualFilterExpression", "") or ""
        ),
        actual_ranking_expression=parse_expression(
            header.get("ActualRankingExpression", "") or ""
        ),
        documents=documents,
        version=header.get("Version", PROTOCOL_VERSION) or PROTOCOL_VERSION,
    )
