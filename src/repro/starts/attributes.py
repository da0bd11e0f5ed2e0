"""Attribute sets: the Basic-1 fields and modifiers, exactly as tabled.

Section 4.1.1 of the paper defines the "Basic-1" attribute set — the
recommended fields and modifiers, derived from GILS/Z39.50 Bib-1 with a
few new additions.  This module transcribes both tables verbatim
(including the Required?/New? columns), provides the attribute-set
registry that lets queries mix sets, and parses/serializes the
qualified references used in metadata objects: ``[basic-1 author]`` for
fields and ``{basic-1 phonetics}`` for modifiers.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.starts.errors import QuerySyntaxError

__all__ = [
    "FieldSpec",
    "ModifierSpec",
    "AttributeSet",
    "BASIC1",
    "FieldRef",
    "ModifierRef",
    "canonical_field_name",
    "COMPARISON_MODIFIERS",
]

#: The six comparison modifiers (``=`` is the default when none given).
COMPARISON_MODIFIERS = ("<", "<=", "=", ">=", ">", "!=")


@dataclass(frozen=True, slots=True)
class FieldSpec:
    """One row of the paper's field table."""

    name: str
    required: bool
    new: bool


@dataclass(frozen=True, slots=True)
class ModifierSpec:
    """One row of the paper's modifier table."""

    name: str
    default: str
    new: bool


class AttributeSet:
    """A named set of field and modifier specifications."""

    def __init__(
        self,
        name: str,
        fields: list[FieldSpec],
        modifiers: list[ModifierSpec],
    ) -> None:
        self.name = name
        self.fields = {spec.name: spec for spec in fields}
        self.modifiers = {spec.name: spec for spec in modifiers}

    def field(self, name: str) -> FieldSpec | None:
        return self.fields.get(canonical_field_name(name))

    def modifier(self, name: str) -> ModifierSpec | None:
        return self.modifiers.get(name.lower())

    def required_fields(self) -> list[str]:
        return [name for name, spec in self.fields.items() if spec.required]

    def __repr__(self) -> str:
        return (
            f"AttributeSet({self.name!r}, {len(self.fields)} fields, "
            f"{len(self.modifiers)} modifiers)"
        )


_FIELD_ALIASES = {
    # The paper's prose uses "date-last-modified" while the table says
    # "Date/time-last-modified"; both resolve to the canonical name.
    "date-last-modified": "date/time-last-modified",
    "datetime-last-modified": "date/time-last-modified",
}


def canonical_field_name(name: str) -> str:
    """Canonical lowercase form of a field name, resolving aliases."""
    lowered = name.lower()
    return _FIELD_ALIASES.get(lowered, lowered)


#: The Basic-1 field table, Section 4.1.1 (Required? / New? columns).
_BASIC1_FIELDS = [
    FieldSpec("title", required=True, new=False),
    FieldSpec("author", required=False, new=False),
    FieldSpec("body-of-text", required=False, new=False),
    FieldSpec("document-text", required=False, new=True),
    FieldSpec("date/time-last-modified", required=True, new=False),
    FieldSpec("any", required=True, new=False),
    FieldSpec("linkage", required=True, new=False),
    FieldSpec("linkage-type", required=False, new=False),
    FieldSpec("cross-reference-linkage", required=False, new=False),
    FieldSpec("languages", required=False, new=False),
    FieldSpec("free-form-text", required=False, new=True),
]

#: The Basic-1 modifier table, Section 4.1.1 (Default / New? columns).
_BASIC1_MODIFIERS = [
    ModifierSpec("<", default="=", new=False),
    ModifierSpec("<=", default="=", new=False),
    ModifierSpec("=", default="=", new=False),
    ModifierSpec(">=", default="=", new=False),
    ModifierSpec(">", default="=", new=False),
    ModifierSpec("!=", default="=", new=False),
    ModifierSpec("phonetic", default="no soundex", new=False),
    ModifierSpec("stem", default="no stemming", new=False),
    ModifierSpec("thesaurus", default="no thesaurus expansion", new=True),
    ModifierSpec("right-truncation", default="no right truncation", new=False),
    ModifierSpec("left-truncation", default="no left truncation", new=False),
    ModifierSpec("case-sensitive", default="case insensitive", new=True),
]

BASIC1 = AttributeSet("basic-1", _BASIC1_FIELDS, _BASIC1_MODIFIERS)


@dataclass(frozen=True, slots=True)
class FieldRef:
    """A possibly set-qualified field reference, e.g. ``[basic-1 author]``.

    Unqualified references carry ``attribute_set=None`` and resolve
    against the query's default attribute set.
    """

    name: str
    attribute_set: str | None = None

    def serialize(self) -> str:
        if self.attribute_set is None:
            return self.name
        return f"[{self.attribute_set} {self.name}]"

    @classmethod
    def parse(cls, text: str) -> "FieldRef":
        text = text.strip()
        if text.startswith("["):
            if not text.endswith("]"):
                raise QuerySyntaxError(f"unterminated field reference: {text!r}")
            inner = text[1:-1].split()
            if len(inner) != 2:
                raise QuerySyntaxError(f"field reference needs set and name: {text!r}")
            return cls(canonical_field_name(inner[1]), inner[0].lower())
        return cls(canonical_field_name(text))


@dataclass(frozen=True, slots=True)
class ModifierRef:
    """A possibly set-qualified modifier reference, e.g. ``{basic-1 stem}``."""

    name: str
    attribute_set: str | None = None

    def serialize(self) -> str:
        if self.attribute_set is None:
            return self.name
        return f"{{{self.attribute_set} {self.name}}}"

    @classmethod
    def parse(cls, text: str) -> "ModifierRef":
        text = text.strip()
        if text.startswith("{"):
            if not text.endswith("}"):
                raise QuerySyntaxError(f"unterminated modifier reference: {text!r}")
            inner = text[1:-1].split()
            if len(inner) != 2:
                raise QuerySyntaxError(f"modifier reference needs set and name: {text!r}")
            return cls(inner[1].lower(), inner[0].lower())
        return cls(text.lower())
