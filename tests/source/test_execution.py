"""Query down-translation: pruning, degradation, stop words."""

from repro.engine.query import BooleanQuery, ListQuery, ProxQuery, TermQuery
from repro.source.capabilities import SourceCapabilities
from repro.source.execution import QueryTranslator
from repro.starts.parser import parse_expression
from repro.text.analysis import Analyzer


def translator(capabilities=None):
    return QueryTranslator(
        capabilities or SourceCapabilities.full_basic1(), Analyzer()
    )


def filter_outcome(text, capabilities=None, drop_stop_words=True):
    return translator(capabilities).translate_filter(
        parse_expression(text), drop_stop_words
    )


def ranking_outcome(text, capabilities=None, drop_stop_words=True):
    return translator(capabilities).translate_ranking(
        parse_expression(text), drop_stop_words
    )


class TestLosslessTranslation:
    def test_supported_query_passes_through(self):
        outcome = filter_outcome('((author "Ullman") and (title "databases"))')
        assert outcome.dropped == []
        assert outcome.actual.serialize() == (
            '((author "Ullman") and (title "databases"))'
        )
        assert isinstance(outcome.engine_query, BooleanQuery)

    def test_none_expression(self):
        outcome = translator().translate_filter(None, True)
        assert outcome.actual is None and outcome.engine_query is None


class TestFieldPruning:
    def test_unsupported_field_drops_term(self):
        caps = SourceCapabilities.full_basic1().without_fields("author")
        outcome = filter_outcome('((author "Ullman") and (title "db"))', caps)
        assert outcome.actual.serialize() == '(title "db")'
        assert any("author" in note for note in outcome.dropped)

    def test_or_survives_single_operand(self):
        caps = SourceCapabilities.full_basic1().without_fields("author")
        outcome = filter_outcome('((author "x") or (title "y"))', caps)
        assert outcome.actual.serialize() == '(title "y")'

    def test_everything_dropped_yields_none(self):
        caps = SourceCapabilities.full_basic1().without_fields("author")
        outcome = filter_outcome('(author "x")', caps)
        assert outcome.actual is None
        assert outcome.engine_query is None


class TestModifierPruning:
    def test_unsupported_modifier_keeps_term(self):
        caps = SourceCapabilities.full_basic1().without_modifiers("stem")
        outcome = filter_outcome('(title stem "databases")', caps)
        assert outcome.actual.serialize() == '(title "databases")'
        assert any("stem" in note for note in outcome.dropped)

    def test_illegal_combination_drops_modifier(self):
        caps = SourceCapabilities(
            combinations=frozenset({("title", "stem")}),
        )
        outcome = filter_outcome('(author stem "Ullman")', caps)
        assert outcome.actual.serialize() == '(author "Ullman")'


class TestAndNotPruning:
    def test_negative_side_dropped_keeps_positive(self):
        caps = SourceCapabilities.full_basic1().without_fields("author")
        outcome = filter_outcome('((title "x") and-not (author "y"))', caps)
        assert outcome.actual.serialize() == '(title "x")'

    def test_positive_side_dropped_kills_branch(self):
        caps = SourceCapabilities.full_basic1().without_fields("author")
        outcome = filter_outcome('((author "x") and-not (title "y"))', caps)
        assert outcome.actual is None


class TestProxDegradation:
    def test_prox_unsupported_becomes_and(self):
        caps = SourceCapabilities(supports_prox=False)
        outcome = filter_outcome('((title "alpha") prox[2,T] (title "beta"))', caps)
        assert " and " in outcome.actual.serialize()
        assert isinstance(outcome.engine_query, BooleanQuery)

    def test_prox_supported_stays_prox(self):
        outcome = filter_outcome('((title "alpha") prox[2,T] (title "beta"))')
        assert isinstance(outcome.engine_query, ProxQuery)
        assert outcome.engine_query.distance == 2

    def test_prox_with_dropped_operand_degrades_to_survivor(self):
        caps = SourceCapabilities.full_basic1().without_fields("author")
        outcome = filter_outcome('((title "alpha") prox[2,T] (author "beta"))', caps)
        assert outcome.actual.serialize() == '(title "alpha")'


class TestQueryParts:
    def test_filter_only_source_ignores_ranking(self):
        caps = SourceCapabilities(query_parts="F")
        outcome = ranking_outcome('list("x" "y")', caps)
        assert outcome.actual is None
        assert "unsupported" in outcome.dropped[0]

    def test_ranking_only_source_ignores_filter(self):
        caps = SourceCapabilities(query_parts="R")
        outcome = filter_outcome('(title "x")', caps)
        assert outcome.actual is None


class TestStopWords:
    def test_stop_word_terms_eliminated(self):
        outcome = ranking_outcome('list((body-of-text "the") (body-of-text "databases"))')
        assert [t.lstring.text for t in outcome.actual.terms()] == ["databases"]
        assert any("stop word" in note for note in outcome.dropped)

    def test_elimination_disabled_when_requested(self):
        outcome = ranking_outcome(
            'list((body-of-text "the") (body-of-text "who"))', drop_stop_words=False
        )
        assert len(outcome.actual.terms()) == 2

    def test_forced_elimination_when_source_cannot_disable(self):
        caps = SourceCapabilities(turn_off_stop_words=False)
        outcome = ranking_outcome(
            'list((body-of-text "the") (body-of-text "databases"))',
            caps,
            drop_stop_words=False,
        )
        assert [t.lstring.text for t in outcome.actual.terms()] == ["databases"]

    def test_spanish_stop_words_by_language_qualifier(self):
        outcome = ranking_outcome('list((body-of-text [es "el"]) (body-of-text [es "datos"]))')
        assert [t.lstring.text for t in outcome.actual.terms()] == ["datos"]


class TestEngineConversion:
    def test_multiword_filter_term_becomes_and(self):
        outcome = filter_outcome('(author "Jeffrey Ullman")')
        query = outcome.engine_query
        assert isinstance(query, BooleanQuery) and query.operator == "and"
        assert [t.text for t in query.terms()] == ["jeffrey", "ullman"]

    def test_multiword_ranking_term_becomes_list(self):
        outcome = ranking_outcome('(body-of-text "distributed databases")')
        assert isinstance(outcome.engine_query, ListQuery)

    def test_date_value_not_tokenized(self):
        outcome = filter_outcome('(date-last-modified > "1996-08-01")')
        assert isinstance(outcome.engine_query, TermQuery)
        assert outcome.engine_query.text == "1996-08-01"

    def test_weights_carried_to_engine(self):
        outcome = ranking_outcome('list(("distributed" 0.7) ("databases" 0.3))')
        assert [t.weight for t in outcome.engine_query.terms()] == [0.7, 0.3]

    def test_language_carried_to_engine(self):
        outcome = ranking_outcome('(body-of-text [es "datos"])')
        assert outcome.engine_query.language == "es"
