"""Query results: SQResults, SQRDocument and TermStats (Section 4.2).

A result stream starts with one ``@SQResults`` object reporting the
*actual query* the source processed — the protocol's substitute for
error reporting: a source that ignores, say, the ranking expression
says so here — followed by one ``@SQRDocument`` per document.

Each document carries what rank merging needs (Examples 8 and 9):

* ``RawScore`` — the unnormalized score, interpretable only against the
  source's exported ``ScoreRange``;
* ``Sources`` — where the document appears (several, after resource-side
  duplicate elimination);
* ``TermStats`` — per ranking-expression term: term frequency, the
  engine's own term weight, and document frequency;
* ``DocSize`` (KBytes) and ``DocCount`` (tokens).
"""

from __future__ import annotations

from dataclasses import dataclass, field as dataclass_field

from repro.starts.ast import SNode, STerm
from repro.starts.errors import ProtocolError, QuerySyntaxError, SoifSyntaxError
from repro.starts.parser import parse_expression
from repro.starts.query import PROTOCOL_VERSION, SQuery, _format_float, _number
from repro.starts.soif import Span, _read_object, _read_stream, attribute_line

__all__ = ["TermStats", "SQRDocument", "SQResults"]

#: The SQRDocument attributes rank merging reads, decoded with the stream.
_MERGE_ATTRIBUTES = frozenset(("linkage", "rawscore", "termstats", "docsize", "doccount"))
#: Attributes of SQRDocument that are not document fields.
_RESERVED_DOC_ATTRIBUTES = _MERGE_ATTRIBUTES | {"version", "sources"}
_HEADER_ATTRIBUTES = frozenset(
    ("version", "sources", "actualfilterexpression", "actualrankingexpression", "numdocsoifs")
)


def _first_values(data: bytes, spans: list[Span], wanted: frozenset[str]) -> dict[str, str]:
    """The ``wanted`` attributes among ``spans``, keyed in lower case:
    names match case-insensitively and an attribute's first value wins."""
    found: dict[str, str] = {}
    for name, start, end in spans:
        key = name.lower()
        if key in wanted and key not in found:
            found[key] = data[start:end].decode()
    return found


def _expression(header: dict[str, str], attribute: str, memo: dict) -> SNode | None:
    text = header.get(attribute.lower(), "")
    try:
        return memo.get(text) or parse_expression(text)
    except (QuerySyntaxError, ProtocolError, ValueError) as error:
        raise SoifSyntaxError(f"bad {attribute}: {error}") from error


def _seed(query: SQuery) -> dict[str, SNode]:
    """Text -> node for each expression of ``query`` and every term in them:
    what a lossless answer echoes (exact, as ``parse(serialize(x)) == x``)."""
    memo: dict[str, SNode] = {}
    expressions = (query.filter_expression, query.ranking_expression)
    for expression, text in zip(expressions, query.serialized_expressions):
        if expression is not None:
            memo[text] = expression
            memo.update((term.serialize(), term) for term in expression.terms())
    return memo


# -- the one result writer, fed objects by ``SQResults.to_soif_stream`` and
# engine hits by ``StartsSource.respond``: ``write_header``, one
# ``write_document`` per document, the lines joined and ended by newlines.
# A document's lines split by what they depend on: ``document_head``'s
# only on the version, ``document_body``'s and ``document_tail``'s only
# on the document (and the answer fields asked for), the rest on the query.


def write_header(lines, version, sources, actual_filter, actual_ranking, count) -> None:
    """Append the ``@SQResults`` object; ``sources`` space-separated."""
    line = attribute_line
    lines += ("@SQResults{", line("Version", version), line("Sources", sources))
    if actual_filter is not None:
        lines.append(line("ActualFilterExpression", actual_filter.serialize()))
    if actual_ranking is not None:
        lines.append(line("ActualRankingExpression", actual_ranking.serialize()))
    lines += (line("NumDocSOIFs", str(count)), "}")


def document_head(version: str) -> str:
    """What opens every ``@SQRDocument`` of ``version``: the blank line
    that separates objects, the template and the ``Version`` line."""
    return "\n@SQRDocument{\n" + attribute_line("Version", version)


def document_body(linkage: str, fields) -> str:
    """The ``linkage`` line, then one line per (name, value) of ``fields``."""
    return "\n".join(
        [attribute_line("linkage", linkage), *(attribute_line(*pair) for pair in fields)]
    )


def document_tail(doc_size: int, doc_count: int) -> str:
    """What closes an ``@SQRDocument``: ``DocSize``, ``DocCount``, ``}``."""
    size = attribute_line("DocSize", str(doc_size))
    return f"{size}\n{attribute_line('DocCount', str(doc_count))}\n}}"


def write_document(lines, head, raw_score, sources, body, term_stats, tail) -> None:
    """Append one ``@SQRDocument``: ``head``, ``body`` and ``tail`` from
    the three functions above, ``sources`` its ``Sources`` line and
    ``term_stats`` :func:`term_stats_row` rows joined by newlines."""
    lines += (head, attribute_line("RawScore", _format_float(raw_score)), sources, body)
    if term_stats:
        lines.append(attribute_line("TermStats", term_stats))
    lines.append(tail)


def term_stats_row(term: str, term_frequency: int, term_weight: float, df: int) -> str:
    """One ``TermStats`` row, ``term`` already serialized."""
    return f"{term} {term_frequency} {_format_float(term_weight)} {df}"


@dataclass(frozen=True, slots=True)
class TermStats:
    """Statistics for one ranking-expression term in one document."""

    term: STerm
    term_frequency: int
    term_weight: float
    document_frequency: int

    def serialize(self, terms: dict[int, str] | None = None) -> str:
        """Encode one ``TermStats`` line.

        ``terms`` memoizes ``id(term)`` -> serialized term for the
        caller's one response, which keeps its terms alive meanwhile.
        """
        if terms is None:
            terms = {}
        text = terms.get(id(self.term))
        if text is None:
            text = terms[id(self.term)] = self.term.serialize()
        return term_stats_row(
            text, self.term_frequency, self.term_weight, self.document_frequency
        )

    @classmethod
    def parse(cls, line: str, memo: dict[str, SNode] | None = None) -> "TermStats":
        """Decode one ``TermStats`` line.

        ``memo`` maps text -> parsed node for the caller's one response,
        whose documents all repeat the query's few terms.
        """
        line = line.strip()
        # The term serialization ends at the last ')' or '"'; the three
        # numbers follow.
        parts = line.rsplit(None, 3)
        if len(parts) != 4:
            raise SoifSyntaxError(f"bad TermStats line: {line!r}")
        term_text, tf_text, weight_text, df_text = parts
        if memo is None:
            memo = {}
        term = memo.get(term_text)
        try:
            if term is None:
                term = parse_expression(term_text)
            tf, weight, df = int(tf_text), float(weight_text), int(df_text)
        except (QuerySyntaxError, ProtocolError, ValueError) as error:
            raise SoifSyntaxError(f"bad TermStats line: {line!r} ({error})") from error
        if not isinstance(term, STerm):
            raise SoifSyntaxError(f"TermStats entry is not a term: {term_text!r}")
        memo[term_text] = term
        return cls(term, tf, weight, df)


#: How a frozen document is filled in outside its ``__init__``.
_set = object.__setattr__


class _Retained:
    """What a decoded document keeps in place of the attributes not
    built yet: the response it came in and the offset of its ``@``."""

    __slots__ = ("_response", "_offset")


@dataclass(frozen=True, slots=True)
class SQRDocument(_Retained):
    """One document in a query result.

    ``fields`` holds the answer fields the query asked for (title,
    author, ...); ``linkage`` is always present per the protocol.

    A document decoded from a stream carries what rank merging reads;
    ``fields``, ``sources`` and ``version`` are built from the retained
    response when first read.  The decode has checked all of it, so
    reading them cannot fail.
    """

    linkage: str
    raw_score: float
    sources: tuple[str, ...]
    fields: dict[str, str] = dataclass_field(default_factory=dict)
    term_stats: tuple[TermStats, ...] = ()
    doc_size: int = 1
    doc_count: int = 0
    version: str = PROTOCOL_VERSION

    def get(self, name: str, default: str = "") -> str:
        if name == "linkage":
            return self.linkage
        return self.fields.get(name, default)

    def __getattr__(self, name: str):
        # Reached only for an attribute not set yet.  Racing readers
        # each build the same values from the same bytes.
        if name not in ("fields", "sources", "version"):
            raise AttributeError(name)
        data = self._response
        _, spans, _ = _read_object(data, self._offset, {})
        first = _first_values(data, spans, _RESERVED_DOC_ATTRIBUTES)
        _set(self, "sources", tuple(first.get("sources", "").split()))
        _set(self, "version", first.get("version") or PROTOCOL_VERSION)
        # Every attribute that is not reserved is an answer field, in
        # wire order.
        fields = {
            attribute: data[start:end].decode()
            for attribute, start, end in spans
            if attribute.lower() not in _RESERVED_DOC_ATTRIBUTES
        }
        _set(self, "fields", fields)
        return getattr(self, name)

    @classmethod
    def _decode(
        cls, data: bytes, offset: int, spans: list[Span], memo: dict[str, SNode]
    ) -> "SQRDocument":
        """The ``@SQRDocument`` at ``offset`` of ``data``, checking what
        the walk that found ``spans`` could not: the numbers and the
        ``TermStats`` lines.  ``memo`` as in :meth:`TermStats.parse`."""
        first = _first_values(data, spans, _MERGE_ATTRIBUTES)
        linkage = first.get("linkage")
        if linkage is None:
            raise SoifSyntaxError("SQRDocument without linkage")
        term_stats = [
            TermStats.parse(line, memo)
            for line in first.get("termstats", "").splitlines()
            if line.strip()
        ]
        document = object.__new__(cls)
        _set(document, "_response", data)
        _set(document, "_offset", offset)
        _set(document, "linkage", linkage)
        _set(document, "raw_score", _number(float, "RawScore", first.get("rawscore"), 0.0))
        _set(document, "term_stats", tuple(term_stats))
        _set(document, "doc_size", _number(int, "DocSize", first.get("docsize"), 1))
        _set(document, "doc_count", _number(int, "DocCount", first.get("doccount"), 0))
        return document


@dataclass(frozen=True)
class SQResults:
    """A full query result: header plus documents.

    Attributes:
        sources: the sources that evaluated the query.
        actual_filter_expression / actual_ranking_expression: the query
            the source *actually* processed after dropping unsupported
            parts (Example 7); None where the source processed nothing.
        documents: the SQRDocument list, already sorted per the query's
            sort specification.
    """

    sources: tuple[str, ...]
    actual_filter_expression: SNode | None = None
    actual_ranking_expression: SNode | None = None
    documents: tuple[SQRDocument, ...] = ()
    version: str = PROTOCOL_VERSION

    @property
    def num_doc_soifs(self) -> int:
        return len(self.documents)

    def validate(self) -> None:
        if not self.sources:
            raise ProtocolError("SQResults must name at least one source")

    def to_soif_stream(self) -> str:
        """The wire form: @SQResults then the @SQRDocument series."""
        lines: list[str] = []
        write_header(
            lines, self.version, " ".join(self.sources), self.actual_filter_expression,
            self.actual_ranking_expression, self.num_doc_soifs,
        )
        # Each distinct term object of this response is serialized once;
        # the memo dies with the call.
        terms: dict[int, str] = {}
        for document in self.documents:
            write_document(
                lines, document_head(document.version), document.raw_score,
                attribute_line("Sources", " ".join(document.sources)),
                document_body(document.linkage, document.fields.items()),
                "\n".join(stats.serialize(terms) for stats in document.term_stats),
                document_tail(document.doc_size, document.doc_count),
            )
        return "\n".join(lines) + "\n"

    @classmethod
    def from_soif_stream(
        cls, text: str | bytes, query: SQuery | None = None
    ) -> "SQResults":
        """Decode a result stream; whatever is wrong with it — framing,
        encoding, a number or expression that does not parse — raises
        :class:`SoifSyntaxError` here, although the documents build
        their answer fields only when first read.

        ``query``, the query the stream answers, only saves work: the
        ``Actual*Expression`` headers and ``TermStats`` terms that echo
        its text are looked up, not parsed, and decode to its nodes."""
        data, objects = _read_stream(text)
        if not objects or objects[0][1] != "SQResults":
            raise SoifSyntaxError("result stream must start with @SQResults")
        header = _first_values(data, objects[0][2], _HEADER_ATTRIBUTES)
        # Text -> node: each distinct text of this response is parsed at
        # most once; the memo dies with the call.
        memo = {} if query is None else _seed(query)
        documents = []
        for offset, template, spans in objects[1:]:
            if template != "SQRDocument":
                raise SoifSyntaxError(f"expected @SQRDocument, got @{template}")
            documents.append(SQRDocument._decode(data, offset, spans, memo))
        count, declared = len(documents), header.get("numdocsoifs")
        if declared is not None and _number(int, "NumDocSOIFs", declared, -1) != count:
            raise SoifSyntaxError(f"NumDocSOIFs says {declared} but stream has {count}")
        return cls(
            sources=tuple(header.get("sources", "").split()),
            actual_filter_expression=_expression(header, "ActualFilterExpression", memo),
            actual_ranking_expression=_expression(header, "ActualRankingExpression", memo),
            documents=tuple(documents),
            version=header.get("version") or PROTOCOL_VERSION,
        )
