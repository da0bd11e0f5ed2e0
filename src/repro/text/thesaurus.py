"""Thesaurus expansion — the Basic-1 ``thesaurus`` modifier (marked *new*).

The paper adds ``Thesaurus`` to the modifier table (default: "no
thesaurus expansion").  A source that supports it expands a query term
into its synonym set before matching.  The reproduction ships a small
domain thesaurus covering the computer-science vocabulary the synthetic
corpus generator uses, so the modifier is exercisable end to end.
"""

from __future__ import annotations

from collections.abc import Iterable

__all__ = ["Thesaurus", "DEFAULT_THESAURUS"]


class Thesaurus:
    """Symmetric synonym groups with lookup by any member.

    Groups are closed under symmetry: if "car" and "automobile" share a
    group, ``expand("car")`` returns both.  Lookups are case-insensitive
    and the queried word itself is always included in the expansion.
    """

    def __init__(self, groups: Iterable[Iterable[str]] = ()) -> None:
        self._groups: dict[str, frozenset[str]] = {}
        for group in groups:
            self.add_group(group)

    def add_group(self, words: Iterable[str]) -> None:
        """Register a synonym group, merging with any overlapping group."""
        normalized = {word.lower() for word in words}
        merged = set(normalized)
        for word in normalized:
            existing = self._groups.get(word)
            if existing:
                merged |= existing
        group = frozenset(merged)
        for word in group:
            self._groups[word] = group

    def expand(self, word: str) -> frozenset[str]:
        """All synonyms of ``word`` including itself."""
        key = word.lower()
        return self._groups.get(key, frozenset((key,)))

    def __contains__(self, word: str) -> bool:
        return word.lower() in self._groups

    def __len__(self) -> int:
        return len({id(group) for group in self._groups.values()})


#: Small CS-flavoured thesaurus matching the synthetic corpus vocabulary.
DEFAULT_THESAURUS = Thesaurus(
    [
        ("database", "databank", "datastore"),
        ("distributed", "decentralized", "federated"),
        ("search", "retrieval", "lookup"),
        ("document", "text", "record"),
        ("index", "catalog", "directory"),
        ("query", "request"),
        ("ranking", "scoring", "ordering"),
        ("network", "internet", "web"),
        ("algorithm", "method", "procedure"),
        ("metadata", "schema"),
        ("server", "host"),
        ("protocol", "standard"),
        ("car", "automobile", "vehicle"),
        ("illness", "disease", "ailment"),
        ("medicine", "drug", "pharmaceutical"),
    ]
)
