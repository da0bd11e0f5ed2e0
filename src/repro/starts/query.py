"""SQuery: a complete STARTS query (Section 4.1.2, Example 6).

Beyond the filter and ranking expressions, a query carries:

* whether the source should drop stop words (``DropStopWords``),
* the default attribute set and language (notational convenience),
* additional *local* sources at the same resource to evaluate against
  (so the resource can eliminate duplicates — Figure 1),
* the answer specification: which fields to return (default Title and
  Linkage), the sort order (default: score, descending), the minimum
  acceptable score and the maximum number of documents.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from functools import cached_property

from repro.starts.ast import SNode
from repro.starts.errors import ProtocolError, SoifSyntaxError
from repro.starts.parser import parse_expression
from repro.starts.soif import SoifObject

__all__ = ["SortKey", "SQuery", "PROTOCOL_VERSION", "SCORE_SORT_FIELD"]

PROTOCOL_VERSION = "STARTS 1.0"

#: Pseudo-field used in sort specifications for the document score.
SCORE_SORT_FIELD = "score"

#: Default answer fields per §4.1.2 (linkage is *always* returned too).
DEFAULT_ANSWER_FIELDS = ("title",)


@dataclass(frozen=True, slots=True)
class SortKey:
    """One sort criterion: a field and a direction.

    ``descending=True`` renders as ``d``, ascending as ``a``.  The
    default query sort is the document score, descending.
    """

    field: str
    descending: bool = True

    def serialize(self) -> str:
        return f"{self.field} {'d' if self.descending else 'a'}"

    @classmethod
    def parse(cls, text: str) -> "SortKey":
        parts = text.split()
        if len(parts) == 1:
            return cls(parts[0])
        if len(parts) == 2 and parts[1] in ("a", "d"):
            return cls(parts[0], parts[1] == "d")
        raise SoifSyntaxError(f"bad SortByFields piece: {text!r}")


@dataclass(frozen=True)
class SQuery:
    """An immutable STARTS query.

    Either expression may be None, but a query with neither is invalid
    (Section 4.1.1 allows one to be absent, not both).
    """

    filter_expression: SNode | None = None
    ranking_expression: SNode | None = None
    drop_stop_words: bool = True
    default_attribute_set: str = "basic-1"
    default_language: str = "en-US"
    sources: tuple[str, ...] = ()
    answer_fields: tuple[str, ...] = DEFAULT_ANSWER_FIELDS
    sort_keys: tuple[SortKey, ...] = (SortKey(SCORE_SORT_FIELD, descending=True),)
    min_document_score: float = 0.0
    max_number_documents: int = 20
    version: str = PROTOCOL_VERSION

    def validate(self) -> None:
        """Check protocol invariants; raises :class:`ProtocolError`."""
        if self.filter_expression is None and self.ranking_expression is None:
            raise ProtocolError("query needs a filter or a ranking expression")
        if self.max_number_documents < 0:
            raise ProtocolError("MaxNumberDocuments must be non-negative")

    def with_sources(self, *sources: str) -> "SQuery":
        """A copy that asks for evaluation at additional local sources."""
        return replace(self, sources=tuple(sources))

    def expression_terms(self):
        """All atomic terms across both expressions (for translation)."""
        terms = []
        if self.filter_expression is not None:
            terms.extend(self.filter_expression.terms())
        if self.ranking_expression is not None:
            terms.extend(self.ranking_expression.terms())
        return terms

    # -- SOIF encoding (Example 6) ---------------------------------------

    @cached_property
    def serialized_expressions(self) -> tuple[str | None, str | None]:
        """Both expressions serialized once: for the request, and for the
        decode of its answer (:meth:`SQResults.from_soif_stream`)."""
        expressions = (self.filter_expression, self.ranking_expression)
        return tuple(expression and expression.serialize() for expression in expressions)

    def to_soif(self) -> SoifObject:
        obj = SoifObject("SQuery")
        obj.add("Version", self.version)
        filter_text, ranking_text = self.serialized_expressions
        if filter_text is not None:
            obj.add("FilterExpression", filter_text)
        if ranking_text is not None:
            obj.add("RankingExpression", ranking_text)
        obj.add("DropStopWords", "T" if self.drop_stop_words else "F")
        obj.add("DefaultAttributeSet", self.default_attribute_set)
        obj.add("DefaultLanguage", self.default_language)
        if self.sources:
            obj.add("Sources", " ".join(self.sources))
        obj.add("AnswerFields", " ".join(self.answer_fields))
        obj.add("SortByFields", ", ".join(key.serialize() for key in self.sort_keys))
        obj.add("MinDocumentScore", _format_float(self.min_document_score))
        obj.add("MaxNumberDocuments", str(self.max_number_documents))
        return obj

    @classmethod
    def from_soif(cls, obj: SoifObject) -> "SQuery":
        if obj.template != "SQuery":
            raise SoifSyntaxError(f"expected @SQuery, got @{obj.template}")
        # Names match case-insensitively and an attribute's first value wins.
        first: dict[str, str] = {}
        for name, value in obj:
            first.setdefault(name.lower(), value)
        get = first.get
        filter_text, ranking_text = get("filterexpression"), get("rankingexpression")
        sort_text = get("sortbyfields")
        if sort_text:
            sort_keys = tuple(
                SortKey.parse(piece.strip())
                for piece in sort_text.split(",")
                if piece.strip()
            )
        else:
            sort_keys = (SortKey(SCORE_SORT_FIELD, descending=True),)
        # Absent: the §4.1.2 default; present but empty: linkage alone.
        answer_text = get("answerfields")
        answer_fields = (
            DEFAULT_ANSWER_FIELDS if answer_text is None else tuple(answer_text.split())
        )
        return cls(
            filter_expression=parse_expression(filter_text) if filter_text else None,
            ranking_expression=parse_expression(ranking_text) if ranking_text else None,
            drop_stop_words=_parse_flag(get("dropstopwords") or "T"),
            default_attribute_set=get("defaultattributeset") or "basic-1",
            default_language=get("defaultlanguage") or "en-US",
            sources=tuple(get("sources", "").split()),
            answer_fields=answer_fields,
            sort_keys=sort_keys,
            min_document_score=_number(
                float, "MinDocumentScore", get("mindocumentscore"), 0.0
            ),
            max_number_documents=_number(
                int, "MaxNumberDocuments", get("maxnumberdocuments"), 20
            ),
            version=get("version") or PROTOCOL_VERSION,
        )


def _format_float(value: float) -> str:
    """Shortest representation that round-trips the exact float value.

    The paper prints truncated scores (``0.82``) for readability, but a
    lossy wire encoding would make rank merging — and the floor a source
    filters on — depend on print precision; ``repr`` keeps client-side
    and source-side numbers bit-identical.
    """
    return repr(float(value))


def _number(convert: type, attribute: str, text: str | None, default: float) -> float:
    """``convert(text)``; absent or empty reads as ``default``."""
    if not text:
        return default
    try:
        return convert(text)
    except ValueError:
        raise SoifSyntaxError(f"bad {attribute} value {text!r}") from None


def _parse_flag(text: str) -> bool:
    value = text.strip().upper()
    if value in ("T", "TRUE", "1"):
        return True
    if value in ("F", "FALSE", "0"):
        return False
    raise SoifSyntaxError(f"bad boolean flag: {text!r}")
