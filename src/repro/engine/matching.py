"""Modifier-aware term matching.

A Basic-1 term like ``(title stem "databases")`` does not name an index
term directly: the ``stem`` modifier means *any word sharing the stem*,
``phonetic`` means Soundex equivalence, ``right-truncation`` means a
prefix wildcard, and so on.  :class:`TermMatcher` expands a query term
into the set of concrete index terms it denotes, per field, using the
engine's analyzer and index.
"""

from __future__ import annotations

from collections import defaultdict

from repro.engine import fields as F
from repro.engine.index import InvertedIndex
from repro.engine.query import TermQuery
from repro.text.analysis import Analyzer
from repro.text.langtags import parse_language_tag
from repro.text.thesaurus import DEFAULT_THESAURUS

__all__ = ["TermMatcher"]

#: Modifiers handled by expansion (vs. date comparison modifiers).
_EXPANSION_MODIFIERS = frozenset(
    ("stem", "phonetic", "thesaurus", "right-truncation", "left-truncation")
)


class TermMatcher:
    """Expands query terms into concrete (field → index terms) maps."""

    def __init__(self, index: InvertedIndex, analyzer: Analyzer) -> None:
        self._index = index
        self._analyzer = analyzer
        # (field, language) -> (vocab size at build time, stem -> terms).
        self._stem_maps: dict[tuple[str, str], tuple[int, dict[str, set[str]]]] = {}
        # Expansion memo, invalidated whenever the index mutates: the
        # same query term is expanded many times (per node visit, per
        # request) but its expansion only changes with the vocabulary.
        self._expansion_generation = index.generation
        self._expansions: dict[tuple, dict[str, set[str]]] = {}

    def fields_for(self, term: TermQuery) -> tuple[str, ...]:
        """The concrete index fields a term's field designator covers."""
        if term.field == F.ANY:
            return F.TEXT_FIELDS
        return (term.field,)

    def expand(self, term: TermQuery) -> dict[str, set[str]]:
        """Map each covered field to the index terms ``term`` matches.

        Fields with no matching index terms are omitted, so an empty
        result means the term matches nothing in this source.  Results
        are memoized until the index mutates; the memo is bounded so a
        long-lived engine under diverse traffic cannot grow it without
        limit.
        """
        generation = self._index.generation
        if generation != self._expansion_generation:
            self._expansion_generation = generation
            self._expansions.clear()
        key = (term.field, term.text, term.language, term.modifiers)
        cached = self._expansions.get(key)
        if cached is None:
            matches: dict[str, set[str]] = defaultdict(set)
            for field in self.fields_for(term):
                terms = self._expand_in_field(term, field)
                if terms:
                    matches[field] = terms
            if len(self._expansions) >= 4096:
                self._expansions.clear()
            cached = self._expansions[key] = dict(matches)
        # The result is shared with the memo: callers must not mutate it.
        return cached

    def _expand_in_field(self, term: TermQuery, field: str) -> set[str]:
        expansions = _EXPANSION_MODIFIERS & term.modifiers
        wants_stem = "stem" in expansions

        # Base form: normalized the way the index stores terms.  When
        # the query asks for stemming we normalize *with* stemming so a
        # stem-indexing engine hits directly.
        base = self._analyzer.normalize(term.text, term.language, stem=wants_stem)
        found: set[str] = set()

        if not expansions:
            if self._index.has_postings(field, base):
                found.add(base)
            return found

        if wants_stem:
            found |= self._stems_matching(field, term.language, base)
        if "phonetic" in expansions:
            found |= set(self._index.terms_with_soundex(field, term.text))
        if "thesaurus" in expansions:
            for synonym in DEFAULT_THESAURUS.expand(term.text):
                normalized = self._analyzer.normalize(synonym, term.language)
                if self._index.has_postings(field, normalized):
                    found.add(normalized)
        if "right-truncation" in expansions:
            prefix = self._analyzer.normalize(term.text, term.language)
            found |= set(self._index.terms_with_prefix(field, prefix))
        if "left-truncation" in expansions:
            suffix = self._analyzer.normalize(term.text, term.language)
            found |= set(self._index.terms_with_suffix(field, suffix))
        return found

    def _stems_matching(self, field: str, language: str, stem: str) -> set[str]:
        """All index terms in ``field`` whose stem equals ``stem``."""
        tag = parse_language_tag(language)
        stemmer = self._analyzer.stemmer_for(tag)
        key = (field, tag.language)
        vocab = self._index.vocabulary(field)
        cached = self._stem_maps.get(key)
        if cached is None or cached[0] != len(vocab):
            stem_map: dict[str, set[str]] = defaultdict(set)
            for word in vocab:
                stem_map[stemmer(word)].add(word)
            self._stem_maps[key] = (len(vocab), dict(stem_map))
        matched = set(self._stem_maps[key][1].get(stem, set()))
        # The stemmed query form itself may be an index term (engines
        # that index stems), even if no surface form re-stems onto it.
        if self._index.has_postings(field, stem):
            matched.add(stem)
        return matched
