"""Query execution at a source: down-translation + actual-query report.

Section 4.2: "a source might decide to ignore certain parts of a query
that it receives ... each source returns the query that it actually
processed together with the query results."  This module implements
that contract:

1. Prune the incoming STARTS expressions against the source's declared
   capabilities — unsupported fields drop the term, unsupported
   modifiers drop just the modifier, unsupported ``prox`` degrades to
   ``and``, an unsupported query part drops that whole expression.
2. Apply stop-word elimination (unless the query disables it and the
   source allows disabling) — the paper's Example 8, where Source-1
   silently removes "distributed" from the ranking expression.
3. Convert the surviving STARTS AST into the engine's IR, splitting
   multi-word l-strings into per-word conjunctions (filters) or lists
   (ranking).

The pruned AST is what goes back on the wire as
``ActualFilterExpression`` / ``ActualRankingExpression``.
"""

from __future__ import annotations

from dataclasses import dataclass, field as dataclass_field

from repro.engine import fields as F
from repro.engine.query import (
    BooleanQuery,
    EngineQuery,
    ListQuery,
    ProxQuery,
    TermQuery,
)
from repro.source.capabilities import SourceCapabilities
from repro.starts.ast import SAnd, SAndNot, SList, SNode, SOr, SProx, STerm
from repro.starts.attributes import ModifierRef
from repro.text.analysis import Analyzer

__all__ = ["TranslationOutcome", "QueryTranslator"]

#: How many salient words a ``Document-text`` term (relevance feedback,
#: §4.1.1) expands into.
FEEDBACK_TERMS = 10


@dataclass
class TranslationOutcome:
    """The result of down-translating one expression.

    Attributes:
        actual: the pruned STARTS expression the source really
            processes (None if everything was dropped).
        engine_query: the same expression in engine IR (None likewise).
        dropped: human-readable notes on every pruning decision,
            useful for tests and for metasearcher diagnostics.
    """

    actual: SNode | None
    engine_query: EngineQuery | None
    dropped: list[str] = dataclass_field(default_factory=list)


class QueryTranslator:
    """Translates STARTS expressions for one concrete source.

    Args:
        capabilities: the source's declared capabilities.
        analyzer: the source's analysis pipeline (stop lists, tokenizer).
        default_language: the query's default language.
        native_syntax: parser for the source's native query language;
            enables the ``Free-form-text`` field, which carries a
            native query verbatim ("so that informed metasearchers
            could use the sources' richer native query languages").
    """

    def __init__(
        self,
        capabilities: SourceCapabilities,
        analyzer: Analyzer,
        default_language: str = "en-US",
        native_syntax=None,
    ) -> None:
        self._capabilities = capabilities
        self._analyzer = analyzer
        self._default_language = default_language
        self._native_syntax = native_syntax

    # -- public API ----------------------------------------------------

    def translate_filter(
        self, expression: SNode | None, drop_stop_words: bool
    ) -> TranslationOutcome:
        return self._translate(expression, drop_stop_words, ranking=False)

    def translate_ranking(
        self, expression: SNode | None, drop_stop_words: bool
    ) -> TranslationOutcome:
        return self._translate(expression, drop_stop_words, ranking=True)

    def _translate(
        self, expression: SNode | None, drop_stop_words: bool, ranking: bool
    ) -> TranslationOutcome:
        outcome = self.prune(expression, drop_stop_words, ranking)
        if outcome.actual is not None:
            outcome.engine_query = self._to_engine(outcome.actual, ranking)
        return outcome

    def prune(
        self, expression: SNode | None, drop_stop_words: bool, ranking: bool
    ) -> TranslationOutcome:
        """Steps 1–2 alone: ``actual`` is the expression this source
        would report back, ``engine_query`` is left ``None``.  What a
        metasearcher needs to send the source only what it can process."""
        if expression is None:
            return TranslationOutcome(None, None)
        capabilities = self._capabilities
        part, supported = (
            ("ranking", capabilities.supports_ranking())
            if ranking
            else ("filter", capabilities.supports_filter())
        )
        if not supported:
            return TranslationOutcome(
                None, None, [f"{part} expressions unsupported: expression ignored"]
            )
        outcome = TranslationOutcome(None, None)
        outcome.actual = self._prune(expression, drop_stop_words, outcome)
        return outcome

    # -- recursive pruning ------------------------------------------------

    def _prune(
        self, node: SNode, drop_stop_words: bool, outcome: TranslationOutcome
    ) -> SNode | None:
        if isinstance(node, STerm):
            return self._prune_term(node, drop_stop_words, outcome)
        if isinstance(node, (SAnd, SOr)):
            kept = [
                pruned
                for child in node.children
                if (pruned := self._prune(child, drop_stop_words, outcome)) is not None
            ]
            if not kept:
                return None
            if len(kept) == 1:
                return kept[0]
            return SAnd(tuple(kept)) if isinstance(node, SAnd) else SOr(tuple(kept))
        if isinstance(node, SAndNot):
            positive = self._prune(node.positive, drop_stop_words, outcome)
            negative = self._prune(node.negative, drop_stop_words, outcome)
            if positive is None:
                # No positive component left: the whole branch goes.
                if negative is not None:
                    outcome.dropped.append(
                        "and-not lost its positive side: branch dropped"
                    )
                return None
            if negative is None:
                return positive
            return SAndNot(positive, negative)
        if isinstance(node, SProx):
            left = self._prune(node.left, drop_stop_words, outcome)
            right = self._prune(node.right, drop_stop_words, outcome)
            if left is None or right is None:
                outcome.dropped.append("prox lost an operand: degraded")
                return left or right
            if not isinstance(left, STerm) or not isinstance(right, STerm):
                outcome.dropped.append("prox operands no longer atomic: degraded to and")
                return SAnd((left, right))
            if not self._capabilities.supports_prox:
                outcome.dropped.append("prox unsupported: degraded to and")
                return SAnd((left, right))
            return SProx(left, right, node.distance, node.ordered)
        if isinstance(node, SList):
            kept = [
                pruned
                for child in node.children
                if (pruned := self._prune(child, drop_stop_words, outcome)) is not None
            ]
            if not kept:
                return None
            if len(kept) == 1 and isinstance(kept[0], STerm):
                return kept[0]
            return SList(tuple(kept))
        raise TypeError(f"cannot prune node: {type(node).__name__}")

    def _prune_term(
        self, term: STerm, drop_stop_words: bool, outcome: TranslationOutcome
    ) -> SNode | None:
        field_name = term.field_name
        if not self._capabilities.supports_field(field_name):
            outcome.dropped.append(f"field {field_name!r} unsupported: term dropped")
            return None

        if field_name == F.FREE_FORM_TEXT:
            return self._splice_free_form(term, drop_stop_words, outcome)

        kept_modifiers: list[ModifierRef] = []
        for modifier in term.modifiers:
            if not self._capabilities.supports_modifier(modifier.name):
                outcome.dropped.append(
                    f"modifier {modifier.name!r} unsupported: modifier dropped"
                )
                continue
            if not self._capabilities.combination_is_legal(field_name, modifier.name):
                outcome.dropped.append(
                    f"combination ({field_name!r}, {modifier.name!r}) illegal: "
                    "modifier dropped"
                )
                continue
            kept_modifiers.append(modifier)

        if self._eliminates_stop_word(term, drop_stop_words):
            outcome.dropped.append(f"stop word {term.lstring.text!r} eliminated")
            return None

        if tuple(kept_modifiers) == term.modifiers:
            return term
        return STerm(term.lstring, term.field, tuple(kept_modifiers), term.weight)

    def _splice_free_form(
        self, term: STerm, drop_stop_words: bool, outcome: TranslationOutcome
    ) -> SNode | None:
        """Parse a Free-form-text term with the native syntax and splice
        the parsed expression in, so the actual query reveals how the
        source understood the native text (that visibility is how
        metasearchers learn native behaviours, per §4.3.1)."""
        if self._native_syntax is None:
            outcome.dropped.append("free-form-text without a native parser: dropped")
            return None
        try:
            parsed = self._native_syntax.parse(term.lstring.text)
        except Exception as error:  # native syntaxes raise QuerySyntaxError
            outcome.dropped.append(f"free-form-text failed to parse: {error}")
            return None
        outcome.dropped.append(
            f"free-form-text parsed via {type(self._native_syntax).__name__}"
        )
        return self._prune(parsed, drop_stop_words, outcome)

    def _eliminates_stop_word(self, term: STerm, drop_stop_words: bool) -> bool:
        if not drop_stop_words and self._capabilities.turn_off_stop_words:
            return False
        if term.comparison_modifier_present():
            return False
        language = term.lstring.effective_language
        stop_list = self._analyzer.stop_list_for(language)
        if stop_list is None:
            return False
        words = self._analyzer.tokenizer.words(term.lstring.text)
        return bool(words) and all(stop_list.is_stop_word(word) for word in words)

    # -- STARTS AST -> engine IR ----------------------------------------------

    def _to_engine(self, node: SNode, ranking: bool) -> EngineQuery:
        if isinstance(node, STerm):
            return self._term_to_engine(node, ranking)
        if isinstance(node, SAnd):
            return _boolean("and", [self._to_engine(c, ranking) for c in node.children])
        if isinstance(node, SOr):
            return _boolean("or", [self._to_engine(c, ranking) for c in node.children])
        if isinstance(node, SAndNot):
            return BooleanQuery(
                "and-not",
                (
                    self._to_engine(node.positive, ranking),
                    self._to_engine(node.negative, ranking),
                ),
            )
        if isinstance(node, SProx):
            left = self._term_to_engine(node.left, ranking)
            right = self._term_to_engine(node.right, ranking)
            # Multi-word prox operands fall back to their first word.
            left_term = left if isinstance(left, TermQuery) else left.terms()[0]
            right_term = right if isinstance(right, TermQuery) else right.terms()[0]
            return ProxQuery(left_term, right_term, node.distance, node.ordered)
        if isinstance(node, SList):
            return ListQuery(tuple(self._to_engine(c, ranking) for c in node.children))
        raise TypeError(f"cannot convert node: {type(node).__name__}")

    def _term_to_engine(self, term: STerm, ranking: bool) -> EngineQuery:
        language = str(term.lstring.effective_language)
        modifiers = frozenset(term.modifier_names())
        field_name = term.field_name

        if field_name == F.DOCUMENT_TEXT:
            return self._feedback_to_engine(term, ranking, language)

        if field_name in F.DATE_FIELDS or term.comparison_modifier_present():
            # Comparison terms keep their value whole (ISO dates).
            return TermQuery(field_name, term.lstring.text, language, modifiers, term.weight)

        words = self._analyzer.tokenizer.words(term.lstring.text)
        if len(words) <= 1:
            text = words[0] if words else term.lstring.text
            return TermQuery(field_name, text, language, modifiers, term.weight)

        word_queries = tuple(
            TermQuery(field_name, word, language, modifiers, term.weight)
            for word in words
        )
        if ranking:
            return ListQuery(word_queries)
        return BooleanQuery("and", word_queries)


    def _feedback_to_engine(
        self, term: STerm, ranking: bool, language: str
    ) -> EngineQuery:
        """Relevance feedback: a Document-text term carries a whole
        document; it matches via the document's most salient words.

        Salience is within-document frequency after stop-word removal;
        the top :data:`FEEDBACK_TERMS` distinct words become a ``list``
        (ranking) or an ``or`` (filter) over the ``Any`` field.
        """
        counts: dict[str, int] = {}
        for token in self._analyzer.analyze(term.lstring.text, language):
            counts[token.term] = counts.get(token.term, 0) + 1
        salient = sorted(counts.items(), key=lambda item: (-item[1], item[0]))
        words = [word for word, _ in salient[:FEEDBACK_TERMS]]
        if not words:
            words = [self._analyzer.normalize(term.lstring.text, language)]
        word_queries = tuple(
            TermQuery(F.ANY, word, language, frozenset(), term.weight)
            for word in words
        )
        if len(word_queries) == 1:
            return word_queries[0]
        if ranking:
            return ListQuery(word_queries)
        return BooleanQuery("or", word_queries)


def _boolean(operator: str, children: list[EngineQuery]) -> EngineQuery:
    if len(children) == 1:
        return children[0]
    return BooleanQuery(operator, tuple(children))
