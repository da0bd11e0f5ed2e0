"""Engine query IR construction and validation."""

import pytest

from repro.engine.query import BooleanQuery, ListQuery, ProxQuery, TermQuery


def t(text, field="body-of-text", **kwargs):
    return TermQuery(field, text, **kwargs)


class TestTermQuery:
    def test_defaults(self):
        term = t("databases")
        assert term.language == "en"
        assert term.modifiers == frozenset()
        assert term.weight == 1.0

    def test_comparison_extraction(self):
        assert t("1996-01-01", modifiers=frozenset({">"})).comparison() == ">"
        assert t("x").comparison() is None

    def test_comparison_prefers_two_char_operators(self):
        term = t("d", modifiers=frozenset({">="}))
        assert term.comparison() == ">="

    def test_terms_returns_self(self):
        term = t("x")
        assert term.terms() == [term]


class TestBooleanQuery:
    def test_unknown_operator_rejected(self):
        with pytest.raises(ValueError):
            BooleanQuery("xor", (t("a"), t("b")))

    def test_and_not_is_binary(self):
        with pytest.raises(ValueError):
            BooleanQuery("and-not", (t("a"), t("b"), t("c")))

    def test_minimum_arity(self):
        with pytest.raises(ValueError):
            BooleanQuery("and", (t("a"),))

    def test_nary_and(self):
        query = BooleanQuery("and", (t("a"), t("b"), t("c")))
        assert [term.text for term in query.terms()] == ["a", "b", "c"]

    def test_nested_terms_traversal(self):
        inner = BooleanQuery("or", (t("b"), t("c")))
        outer = BooleanQuery("and", (t("a"), inner))
        assert [term.text for term in outer.terms()] == ["a", "b", "c"]


class TestProxQuery:
    def test_negative_distance_rejected(self):
        with pytest.raises(ValueError):
            ProxQuery(t("a"), t("b"), distance=-1)

    def test_terms_left_right(self):
        prox = ProxQuery(t("a"), t("b"), 3, True)
        assert [term.text for term in prox.terms()] == ["a", "b"]


class TestListQuery:
    def test_empty_list_allowed(self):
        assert ListQuery().terms() == []

    def test_mixed_children(self):
        query = ListQuery((t("a"), BooleanQuery("and", (t("b"), t("c")))))
        assert [term.text for term in query.terms()] == ["a", "b", "c"]
