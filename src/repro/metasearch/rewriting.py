"""Predicate rewriting: emulating unsupported modifiers client-side.

Reference [3]/[4] of the paper (Chang, García-Molina, Paepcke: "Boolean
query mapping across heterogeneous information sources" and "Predicate
rewriting for translating Boolean queries") study exactly this: when a
source does not support a predicate, the metasearcher can *rewrite* it
into predicates the source does support, rather than dropping it.

STARTS makes the rewriting concrete: the source's **content summary**
lists its vocabulary, so a ``stem`` term at a no-stem source can be
expanded into an ``or`` of the vocabulary words sharing the stem, a
``phonetic`` term into the words sharing its Soundex code, and a
``right-truncation`` term into the words with the prefix.  The rewritten
query is supported everywhere, at the cost of query size — an
upper-approximation in ref [4]'s terms, exact here because the summary
enumerates the vocabulary.
"""

from __future__ import annotations

from dataclasses import dataclass, field as dataclass_field

from repro.starts.ast import SAnd, SAndNot, SList, SNode, SOr, SProx, STerm
from repro.starts.lstring import LString
from repro.starts.metadata import SContentSummary, SMetaAttributes
from repro.text.porter import porter_stem
from repro.text.soundex import soundex
from repro.text.spanish import spanish_stem

__all__ = ["RewriteReport", "PredicateRewriter"]

#: Modifiers the rewriter can emulate from a vocabulary list.
_REWRITABLE = ("stem", "phonetic", "right-truncation", "left-truncation")

#: Cap on the expansion arity, to keep rewritten queries sane.
_MAX_EXPANSION = 25


@dataclass
class RewriteReport:
    """What the rewriter changed."""

    rewritten: list[str] = dataclass_field(default_factory=list)
    not_rewritable: list[str] = dataclass_field(default_factory=list)


class PredicateRewriter:
    """Rewrites unsupported modifiers against a source's summary."""

    def __init__(self, max_expansion: int = _MAX_EXPANSION) -> None:
        self._max_expansion = max_expansion

    def rewrite(
        self,
        expression: SNode | None,
        metadata: SMetaAttributes,
        summary: SContentSummary | None,
    ) -> tuple[SNode | None, RewriteReport]:
        """Rewrite ``expression`` for the source described by
        ``metadata``, using its ``summary`` vocabulary.

        Only modifiers the source does *not* support (or that are
        illegal with the term's field) are rewritten; everything the
        source handles natively is left alone.  Without a summary
        nothing can be rewritten and the expression is returned as is.
        """
        report = RewriteReport()
        if expression is None or summary is None:
            return expression, report
        return self._walk(expression, metadata, summary, report), report

    # -- traversal --------------------------------------------------------

    def _walk(self, node, metadata, summary, report):
        if isinstance(node, STerm):
            return self._rewrite_term(node, metadata, summary, report)
        if isinstance(node, SAnd):
            return SAnd(
                tuple(self._walk(c, metadata, summary, report) for c in node.children)
            )
        if isinstance(node, SOr):
            return SOr(
                tuple(self._walk(c, metadata, summary, report) for c in node.children)
            )
        if isinstance(node, SAndNot):
            return SAndNot(
                self._walk(node.positive, metadata, summary, report),
                self._walk(node.negative, metadata, summary, report),
            )
        if isinstance(node, SProx):
            # Rewriting a prox operand into an OR would break prox's
            # term-only arity; leave prox terms alone.
            return node
        if isinstance(node, SList):
            return SList(
                tuple(self._walk(c, metadata, summary, report) for c in node.children)
            )
        raise TypeError(f"cannot rewrite node: {type(node).__name__}")

    def _rewrite_term(self, term, metadata, summary, report):
        unsupported = [
            modifier.name
            for modifier in term.modifiers
            if modifier.name in _REWRITABLE
            and not metadata.combination_is_legal(term.field_name, modifier.name)
        ]
        if not unsupported:
            return term

        words = self._expand(term, unsupported[0], summary)
        if not words:
            report.not_rewritable.append(
                f"{unsupported[0]}({term.lstring.text!r}): no vocabulary match"
            )
            return term

        kept = tuple(
            modifier for modifier in term.modifiers if modifier.name != unsupported[0]
        )
        report.rewritten.append(
            f"{unsupported[0]}({term.lstring.text!r}) -> or of {len(words)} words"
        )
        variants = tuple(
            STerm(
                LString(word, term.lstring.language),
                term.field,
                kept,
                term.weight,
            )
            for word in words
        )
        if len(variants) == 1:
            return variants[0]
        return SOr(variants)

    # -- vocabulary expansion -----------------------------------------------

    def _expand(
        self, term: STerm, modifier_name: str, summary: SContentSummary
    ) -> list[str]:
        """Vocabulary words of the term's field matching the modifier."""
        text = term.lstring.text.lower()
        language = term.lstring.effective_language.language
        stemmer = spanish_stem if language == "es" else porter_stem

        if modifier_name == "stem":
            wanted_stem = stemmer(text)
            predicate = lambda word: stemmer(word) == wanted_stem
        elif modifier_name == "phonetic":
            wanted_code = soundex(text)
            predicate = lambda word: soundex(word) == wanted_code
        elif modifier_name == "right-truncation":
            predicate = lambda word: word.startswith(text)
        else:  # left-truncation
            predicate = lambda word: word.endswith(text)

        field_name = term.field_name
        matched: list[str] = []
        seen: set[str] = set()
        for section in summary.sections:
            if field_name != "any" and section.field != field_name:
                continue
            for entry in section.entries:
                word = entry.word if summary.case_sensitive else entry.word.lower()
                if word in seen:
                    continue
                if predicate(word):
                    matched.append(word)
                    seen.add(word)
        matched.sort()
        return matched[: self._max_expansion]
