"""Abstract syntax of STARTS filter and ranking expressions.

The grammar (Section 4.1.1):

* *Atomic terms* — an l-string adorned with at most one field and zero
  or more modifiers, e.g. ``(title stem "databases")``.  In ranking
  expressions a term may carry a weight in [0, 1] (Example 5).
* *Filter expressions* — terms combined with ``and``, ``or``,
  ``and-not`` and ``prox`` (a simple subset of Z39.50-1995 type-101
  queries).  There is deliberately no ``not``: every query keeps a
  positive component.
* *Ranking expressions* — the same operators plus ``list``, the flat
  grouping that is the most common vector-space query form.

Nodes are frozen dataclasses; ``serialize()`` renders the exact
query-language syntax used in the paper's examples, and the parser in
:mod:`repro.starts.parser` is its inverse.
"""

from __future__ import annotations

from dataclasses import dataclass, field as dataclass_field
from decimal import Decimal

from repro.starts.attributes import FieldRef, ModifierRef
from repro.starts.errors import ProtocolError
from repro.starts.lstring import LString

__all__ = ["SNode", "STerm", "SAnd", "SOr", "SAndNot", "SProx", "SList"]


class SNode:
    """Base class of all expression nodes."""

    def serialize(self) -> str:
        raise NotImplementedError

    def terms(self) -> list["STerm"]:
        """All atomic terms, left to right."""
        raise NotImplementedError

    def __str__(self) -> str:
        return self.serialize()


@dataclass(frozen=True, slots=True)
class STerm(SNode):
    """An atomic term: l-string + optional field + modifiers + weight.

    Attributes:
        lstring: the (possibly language-qualified) string.
        field: the field reference; None means the ``Any`` field.
        modifiers: modifier references, order preserved as written.
        weight: relative importance in ranking expressions; must lie in
            (0, 1].  Filter terms always have weight 1.
    """

    lstring: LString
    field: FieldRef | None = None
    modifiers: tuple[ModifierRef, ...] = ()
    weight: float = 1.0

    def __post_init__(self) -> None:
        if not 0.0 < self.weight <= 1.0:
            raise ProtocolError(f"term weight must be in (0, 1]: {self.weight}")

    def terms(self) -> list["STerm"]:
        return [self]

    @property
    def field_name(self) -> str:
        """The effective field name (``any`` when no field given)."""
        return self.field.name if self.field is not None else "any"

    def modifier_names(self) -> tuple[str, ...]:
        return tuple(modifier.name for modifier in self.modifiers)

    def comparison_modifier_present(self) -> bool:
        """True if the term carries one of <, <=, =, >=, >, !=."""
        comparison = {"<", "<=", "=", ">=", ">", "!="}
        return any(modifier.name in comparison for modifier in self.modifiers)

    def serialize(self) -> str:
        parts: list[str] = []
        if self.field is not None:
            parts.append(self.field.serialize())
        parts.extend(modifier.serialize() for modifier in self.modifiers)
        parts.append(self.lstring.serialize())
        if self.weight != 1.0:
            parts.append(_format_weight(self.weight))
        if self.field is None and not self.modifiers and self.weight == 1.0:
            # A bare l-string needs no parentheses (Example 4's R2).
            return self.lstring.serialize()
        return "(" + " ".join(parts) + ")"


def _format_weight(weight: float) -> str:
    # The shortest decimal that reads back as the same float; the
    # grammar's NUMBER has no exponent form, so a tiny weight is spelled out.
    text = repr(weight)
    return format(Decimal(text), "f") if "e" in text else text


class _Nary(SNode):
    """Shared behaviour of and/or: n-ary, serialized infix."""

    operator: str
    children: tuple[SNode, ...]

    def terms(self) -> list[STerm]:
        found: list[STerm] = []
        for child in self.children:
            found.extend(child.terms())
        return found

    def serialize(self) -> str:
        inner = f" {self.operator} ".join(_child_text(c) for c in self.children)
        return f"({inner})"


def _child_text(node: SNode) -> str:
    text = node.serialize()
    # Bare l-strings must be wrapped when used as boolean operands so
    # the serialization re-parses unambiguously.
    if isinstance(node, STerm) and not text.startswith("("):
        return f"({text})"
    return text


def _flattened(children: tuple[SNode, ...], node_type: type) -> tuple[SNode, ...]:
    """Inline directly-nested same-operator children (associativity).

    ``(a and (b and c))`` and ``((a and b) and c)`` denote the same
    query; canonicalizing at construction makes serialization and
    parsing exact inverses.
    """
    flat: list[SNode] = []
    for child in children:
        if isinstance(child, node_type):
            flat.extend(child.children)
        else:
            flat.append(child)
    return tuple(flat)


@dataclass(frozen=True, slots=True)
class SAnd(_Nary):
    """``(e1 and e2 [and e3 ...])``; nested ands flatten."""

    children: tuple[SNode, ...]
    operator: str = dataclass_field(default="and", init=False, repr=False)

    def __post_init__(self) -> None:
        object.__setattr__(self, "children", _flattened(self.children, SAnd))
        if len(self.children) < 2:
            raise ProtocolError("and needs at least two operands")


@dataclass(frozen=True, slots=True)
class SOr(_Nary):
    """``(e1 or e2 [or e3 ...])``; nested ors flatten."""

    children: tuple[SNode, ...]
    operator: str = dataclass_field(default="or", init=False, repr=False)

    def __post_init__(self) -> None:
        object.__setattr__(self, "children", _flattened(self.children, SOr))
        if len(self.children) < 2:
            raise ProtocolError("or needs at least two operands")


@dataclass(frozen=True, slots=True)
class SAndNot(SNode):
    """``(positive and-not negative)`` — the only negation STARTS allows."""

    positive: SNode
    negative: SNode

    def terms(self) -> list[STerm]:
        return self.positive.terms() + self.negative.terms()

    def serialize(self) -> str:
        return f"({_child_text(self.positive)} and-not {_child_text(self.negative)})"


@dataclass(frozen=True, slots=True)
class SProx(SNode):
    """``(t1 prox[distance,order] t2)`` — Example 3.

    ``order`` is ``T`` when t1 must precede t2.  Distance counts the
    words *between* the terms; ``prox[0,T]`` is adjacency.
    """

    left: STerm
    right: STerm
    distance: int = 0
    ordered: bool = True

    def __post_init__(self) -> None:
        if self.distance < 0:
            raise ProtocolError("prox distance must be non-negative")

    def terms(self) -> list[STerm]:
        return [self.left, self.right]

    def serialize(self) -> str:
        flag = "T" if self.ordered else "F"
        return (
            f"({_child_text(self.left)} prox[{self.distance},{flag}] "
            f"{_child_text(self.right)})"
        )


@dataclass(frozen=True, slots=True)
class SList(SNode):
    """``list(item item ...)`` — the flat vector-space grouping."""

    children: tuple[SNode, ...] = ()

    def terms(self) -> list[STerm]:
        found: list[STerm] = []
        for child in self.children:
            found.extend(child.terms())
        return found

    def serialize(self) -> str:
        return "list(" + " ".join(child.serialize() for child in self.children) + ")"
