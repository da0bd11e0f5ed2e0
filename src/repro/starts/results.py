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
from repro.starts.query import PROTOCOL_VERSION, _format_float, _number
from repro.starts.soif import SoifObject, attribute_line, parse_soif_stream

__all__ = ["TermStats", "SQRDocument", "SQResults"]

#: Attributes of SQRDocument that are not document fields.
_RESERVED_DOC_ATTRIBUTES = frozenset(
    ("version", "rawscore", "sources", "linkage", "termstats", "docsize", "doccount")
)


def _expression(header: SoifObject, attribute: str) -> SNode | None:
    try:
        return parse_expression(header.get(attribute) or "")
    except (QuerySyntaxError, ProtocolError, ValueError) as error:
        raise SoifSyntaxError(f"bad {attribute}: {error}") from error


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
        return (
            f"{text} {self.term_frequency} "
            f"{_format_float(self.term_weight)} {self.document_frequency}"
        )

    @classmethod
    def parse(cls, line: str, terms: dict[str, STerm] | None = None) -> "TermStats":
        """Decode one ``TermStats`` line.

        ``terms`` memoizes term text -> parsed term for the caller's
        one response, whose documents all repeat the query's few terms.
        """
        line = line.strip()
        # The term serialization ends at the last ')' or '"'; the three
        # numbers follow.
        parts = line.rsplit(None, 3)
        if len(parts) != 4:
            raise SoifSyntaxError(f"bad TermStats line: {line!r}")
        term_text, tf_text, weight_text, df_text = parts
        if terms is None:
            terms = {}
        term = terms.get(term_text)
        try:
            if term is None:
                term = parse_expression(term_text)
            tf, weight, df = int(tf_text), float(weight_text), int(df_text)
        except (QuerySyntaxError, ProtocolError, ValueError) as error:
            raise SoifSyntaxError(f"bad TermStats line: {line!r} ({error})") from error
        if not isinstance(term, STerm):
            raise SoifSyntaxError(f"TermStats entry is not a term: {term_text!r}")
        terms[term_text] = term
        return cls(term, tf, weight, df)


@dataclass(frozen=True)
class SQRDocument:
    """One document in a query result.

    ``fields`` holds the answer fields the query asked for (title,
    author, ...); ``linkage`` is always present per the protocol.
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

    @classmethod
    def from_soif(
        cls, obj: SoifObject, terms: dict[str, STerm] | None = None
    ) -> "SQRDocument":
        """Decode one ``@SQRDocument``; ``terms`` as in :meth:`TermStats.parse`."""
        if obj.template != "SQRDocument":
            raise SoifSyntaxError(f"expected @SQRDocument, got @{obj.template}")
        # Reserved names match case-insensitively and their first value
        # wins; every other attribute is an answer field, in wire order.
        reserved: dict[str, str] = {}
        fields: dict[str, str] = {}
        for name, value in obj:
            key = name.lower()
            if key in _RESERVED_DOC_ATTRIBUTES:
                reserved.setdefault(key, value)
            else:
                fields[name] = value
        linkage = reserved.get("linkage")
        if linkage is None:
            raise SoifSyntaxError("SQRDocument without linkage")
        return cls(
            linkage=linkage,
            raw_score=_number(float, "RawScore", reserved.get("rawscore"), 0.0),
            sources=tuple(reserved.get("sources", "").split()),
            fields=fields,
            term_stats=tuple(
                TermStats.parse(line, terms)
                for line in reserved.get("termstats", "").splitlines()
                if line.strip()
            ),
            doc_size=_number(int, "DocSize", reserved.get("docsize"), 1),
            doc_count=_number(int, "DocCount", reserved.get("doccount"), 0),
            version=reserved.get("version") or PROTOCOL_VERSION,
        )


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
        line = attribute_line
        lines = [
            "@SQResults{",
            line("Version", self.version),
            line("Sources", " ".join(self.sources)),
        ]
        add = lines.append
        for name, expression in (
            ("ActualFilterExpression", self.actual_filter_expression),
            ("ActualRankingExpression", self.actual_ranking_expression),
        ):
            if expression is not None:
                add(line(name, expression.serialize()))
        add(line("NumDocSOIFs", str(self.num_doc_soifs)))
        add("}")
        # Each distinct term object of this response is serialized once;
        # the memo dies with the call.
        terms: dict[int, str] = {}
        for document in self.documents:
            add("")  # objects are separated by one blank line
            add("@SQRDocument{")
            add(line("Version", document.version))
            add(line("RawScore", _format_float(document.raw_score)))
            add(line("Sources", " ".join(document.sources)))
            add(line("linkage", document.linkage))
            for name, value in document.fields.items():
                add(line(name, value))
            if document.term_stats:
                rows = [stats.serialize(terms) for stats in document.term_stats]
                add(line("TermStats", "\n".join(rows)))
            add(line("DocSize", str(document.doc_size)))
            add(line("DocCount", str(document.doc_count)))
            add("}")
        add("")
        return "\n".join(lines)

    @classmethod
    def from_soif_stream(cls, text: str | bytes) -> "SQResults":
        """Decode a result stream; whatever is wrong with it — framing,
        encoding, a number or expression that does not parse — raises
        :class:`SoifSyntaxError`."""
        objects = parse_soif_stream(text)
        if not objects or objects[0].template != "SQResults":
            raise SoifSyntaxError("result stream must start with @SQResults")
        header = objects[0]
        # Each distinct term text of this response is parsed once; the
        # memo dies with the call.
        terms: dict[str, STerm] = {}
        documents = tuple(SQRDocument.from_soif(obj, terms) for obj in objects[1:])
        count, declared = len(documents), header.get("NumDocSOIFs")
        if declared is not None and _number(int, "NumDocSOIFs", declared, -1) != count:
            raise SoifSyntaxError(f"NumDocSOIFs says {declared} but stream has {count}")
        return cls(
            sources=tuple((header.get("Sources") or "").split()),
            actual_filter_expression=_expression(header, "ActualFilterExpression"),
            actual_ranking_expression=_expression(header, "ActualRankingExpression"),
            documents=documents,
            version=header.get("Version") or PROTOCOL_VERSION,
        )
