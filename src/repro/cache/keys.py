"""Canonical, order-insensitive serialization of STARTS queries.

Two queries that mean the same thing must share one cache key, or the
result cache leaks hit rate to syntactic noise: ``(a and b)`` versus
``(b and a)``, ``list(x y)`` versus ``list(y x)``, the same source set
selected in a different order.  This module canonicalizes the parts of
an :class:`~repro.starts.query.SQuery` whose order carries no meaning:

* children of ``and`` / ``or`` are commutative (boolean semantics) and
  are sorted by their canonical serialization;
* ``list`` is the flat vector-space grouping — bag semantics, so its
  items sort too;
* ``and-not`` and ``prox`` are **not** commutative and keep their
  operand order (``prox[d,T]`` is explicitly ordered; ``and-not``
  distinguishes positive from negative);
* answer fields and the routed source set are sets in disguise and
  sort; **sort keys keep their order** — sort priority is meaning.

``canonical_expression`` returns a real AST node (so the canonical
form re-parses: parse → canonicalize → serialize → parse is the
identity on canonical forms), and :func:`query_cache_key` folds every
semantically relevant query attribute plus the selected source ids
into one stable string.
"""

from __future__ import annotations

from collections.abc import Iterable

from repro.starts.ast import SAnd, SAndNot, SList, SNode, SOr, STerm
from repro.starts.query import SQuery, _format_float

__all__ = ["canonical_expression", "canonical_text", "query_cache_key"]


def canonical_expression(node: SNode | None) -> SNode | None:
    """The canonical form of an expression: same meaning, one spelling.

    Commutative operators (``and``, ``or``, ``list``) get their
    children canonicalized recursively and sorted by serialization;
    order-sensitive operators (``and-not``, ``prox``) keep operand
    order.  Atomic terms are already canonical (the AST stores
    modifiers as written, which *are* meaningful — ``stem`` before
    ``case-sensitive`` is the same constraint set, but MBasic-1 treats
    the modifier list as ordered on the wire, so we leave it alone).
    """
    if node is None or isinstance(node, STerm):
        return node
    if isinstance(node, SAnd):
        return SAnd(_sorted_children(node.children))
    if isinstance(node, SOr):
        return SOr(_sorted_children(node.children))
    if isinstance(node, SList):
        return SList(_sorted_children(node.children))
    if isinstance(node, SAndNot):
        return SAndNot(
            canonical_expression(node.positive), canonical_expression(node.negative)
        )
    return node  # prox: both operands are atomic terms; order is meaning


def _sorted_children(children: tuple[SNode, ...]) -> tuple[SNode, ...]:
    canonical = [canonical_expression(child) for child in children]
    return tuple(sorted(canonical, key=lambda child: child.serialize()))


def canonical_text(node: SNode | None) -> str:
    """The canonical serialization; ``"-"`` for an absent expression."""
    if node is None:
        return "-"
    return canonical_expression(node).serialize()


def query_cache_key(query: SQuery, source_ids: Iterable[str]) -> str:
    """A stable cache/dedup key for one query against one source set.

    Covers everything that changes the answer: both expressions
    (canonicalized), the selected source ids (sorted — routing order
    is an execution detail), the answer fields (sorted — the response
    carries fields by name), the sort specification (order kept — it
    is priority), score floor, document limit, stop-word handling and
    the default attribute set / language that scope bare terms.
    """
    sort_text = ",".join(key.serialize() for key in query.sort_keys)
    return "|".join(
        (
            "f=" + canonical_text(query.filter_expression),
            "r=" + canonical_text(query.ranking_expression),
            "src=" + ",".join(sorted(set(source_ids))),
            "af=" + ",".join(sorted(set(query.answer_fields))),
            "sort=" + sort_text,
            "min=" + _format_float(query.min_document_score),
            f"max={query.max_number_documents}",
            "stop=" + ("T" if query.drop_stop_words else "F"),
            "attr=" + query.default_attribute_set,
            "lang=" + query.default_language,
        )
    )
