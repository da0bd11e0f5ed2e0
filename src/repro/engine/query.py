"""The engine's internal query representation.

This is deliberately *not* the STARTS AST: a real deployment pairs a
wire-level query language with each engine's native query IR, and the
source layer translates between them (that translation — including
dropping what the engine cannot do — is a first-class protocol concern,
Section 4.2's "actual query").  Keeping the engine IR independent also
lets the vendor simulations expose native syntaxes that bypass STARTS
entirely, which the ``Free-form-text`` field requires.
"""

from __future__ import annotations

from dataclasses import dataclass, field

__all__ = [
    "EngineQuery",
    "TermQuery",
    "BooleanQuery",
    "ProxQuery",
    "ListQuery",
    "AND",
    "OR",
    "AND_NOT",
]

AND = "and"
OR = "or"
AND_NOT = "and-not"


class EngineQuery:
    """Base class for engine query nodes."""

    def terms(self) -> list["TermQuery"]:
        """All leaf terms, left to right (used for statistics reporting)."""
        raise NotImplementedError


@dataclass(frozen=True, slots=True)
class TermQuery(EngineQuery):
    """A single term restricted to a field.

    Attributes:
        field: a field name from :mod:`repro.engine.fields` (or a
            vendor-specific one); ``"any"`` fans out over text fields.
        text: the query word or value (dates in ISO form).
        language: RFC-1766 tag of the term's language.
        modifiers: frozenset of modifier names exactly as in Basic-1:
            ``stem``, ``phonetic``, ``thesaurus``, ``right-truncation``,
            ``left-truncation``, ``case-sensitive`` and the comparison
            modifiers ``<``, ``<=``, ``=``, ``>=``, ``>``, ``!=``.
        weight: relative importance in ranking expressions (0..1].
    """

    field: str
    text: str
    language: str = "en"
    modifiers: frozenset[str] = frozenset()
    weight: float = 1.0

    def terms(self) -> list["TermQuery"]:
        return [self]

    def comparison(self) -> str | None:
        """The comparison modifier if present (``=`` is the default)."""
        for modifier in ("<=", ">=", "!=", "<", ">", "="):
            if modifier in self.modifiers:
                return modifier
        return None


@dataclass(frozen=True, slots=True)
class BooleanQuery(EngineQuery):
    """``and`` / ``or`` / ``and-not`` over two or more children.

    ``and-not`` is strictly binary (left minus right) per the Basic-1
    operator set; ``and``/``or`` accept any arity >= 2.
    """

    operator: str
    children: tuple[EngineQuery, ...]

    def __post_init__(self) -> None:
        if self.operator not in (AND, OR, AND_NOT):
            raise ValueError(f"unknown boolean operator: {self.operator!r}")
        if self.operator == AND_NOT and len(self.children) != 2:
            raise ValueError("and-not takes exactly two operands")
        if len(self.children) < 2:
            raise ValueError(f"{self.operator} needs at least two operands")

    def terms(self) -> list[TermQuery]:
        found: list[TermQuery] = []
        for child in self.children:
            found.extend(child.terms())
        return found


@dataclass(frozen=True, slots=True)
class ProxQuery(EngineQuery):
    """``prox[distance, ordered]`` between two terms (Example 3).

    Matches documents where ``left`` and ``right`` occur within
    ``distance`` intervening words; if ``ordered`` is True, ``left``
    must precede ``right``.
    """

    left: TermQuery
    right: TermQuery
    distance: int = 0
    ordered: bool = True

    def __post_init__(self) -> None:
        if self.distance < 0:
            raise ValueError("proximity distance must be non-negative")

    def terms(self) -> list[TermQuery]:
        return [self.left, self.right]


@dataclass(frozen=True, slots=True)
class ListQuery(EngineQuery):
    """The vector-space ``list(...)`` grouping of ranking terms."""

    children: tuple[EngineQuery, ...] = field(default_factory=tuple)

    def terms(self) -> list[TermQuery]:
        found: list[TermQuery] = []
        for child in self.children:
            found.extend(child.terms())
        return found
