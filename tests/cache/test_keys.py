"""Canonical query serialization: order-insensitive where order has no
meaning, order-preserving where it does, and a parse round-trip property."""

from hypothesis import given, strategies as st

from repro.cache import canonical_expression, canonical_text, query_cache_key
from repro.starts import SQuery, parse_expression
from repro.starts.ast import SAnd, SAndNot, SList, SOr, SProx, STerm
from repro.starts.attributes import FieldRef, ModifierRef
from repro.starts.lstring import LString
from repro.starts.query import SortKey
from repro.text.langtags import LanguageTag


def expr(text: str):
    return parse_expression(text)


class TestCanonicalExpression:
    def test_and_children_sort(self):
        a = expr('((title "x") and (author "y"))')
        b = expr('((author "y") and (title "x"))')
        assert canonical_text(a) == canonical_text(b)

    def test_or_children_sort(self):
        a = expr('((title "x") or (author "y") or (body-of-text "z"))')
        b = expr('((body-of-text "z") or (title "x") or (author "y"))')
        assert canonical_text(a) == canonical_text(b)

    def test_list_items_sort(self):
        a = expr('list((body-of-text "distributed") (body-of-text "databases"))')
        b = expr('list((body-of-text "databases") (body-of-text "distributed"))')
        assert canonical_text(a) == canonical_text(b)

    def test_and_not_keeps_operand_order(self):
        a = expr('((title "x") and-not (title "y"))')
        b = expr('((title "y") and-not (title "x"))')
        assert canonical_text(a) != canonical_text(b)

    def test_prox_keeps_operand_order(self):
        a = expr('((title "x") prox[3,T] (title "y"))')
        b = expr('((title "y") prox[3,T] (title "x"))')
        assert canonical_text(a) != canonical_text(b)

    def test_nested_sorting_recurses(self):
        a = expr('(((b "2") and (a "1")) or ((d "4") and (c "3")))')
        b = expr('(((c "3") and (d "4")) or ((a "1") and (b "2")))')
        assert canonical_text(a) == canonical_text(b)

    def test_none_is_dash(self):
        assert canonical_text(None) == "-"
        assert canonical_expression(None) is None

    def test_different_queries_stay_different(self):
        a = expr('((title "x") and (author "y"))')
        b = expr('((title "x") or (author "y"))')
        assert canonical_text(a) != canonical_text(b)


# -- properties over generated ASTs (mirrors the parser's strategies) ------

_words = st.text(alphabet="abcdefghijklmnopqrstuvwxyz", min_size=1, max_size=8)
_fields = st.sampled_from(["title", "author", "body-of-text", "any"])
_modifiers = st.lists(
    st.sampled_from(["stem", "phonetic", "thesaurus", "case-sensitive"]),
    max_size=2,
    unique=True,
)


@st.composite
def terms(draw):
    word = draw(_words)
    use_field = draw(st.booleans())
    field = FieldRef(draw(_fields)) if use_field else None
    modifiers = tuple(ModifierRef(m) for m in draw(_modifiers))
    weight = draw(st.sampled_from([1.0, 0.5, 0.25]))
    language = draw(
        st.sampled_from([None, LanguageTag("en", ("US",)), LanguageTag("es")])
    )
    return STerm(LString(word, language), field, modifiers, weight)


@st.composite
def expressions(draw, depth=2):
    if depth == 0:
        return draw(terms())
    kind = draw(st.sampled_from(["term", "and", "or", "and-not", "prox", "list"]))
    if kind == "term":
        return draw(terms())
    if kind in ("and", "or"):
        children = tuple(
            draw(st.lists(expressions(depth=depth - 1), min_size=2, max_size=3))
        )
        return SAnd(children) if kind == "and" else SOr(children)
    if kind == "and-not":
        return SAndNot(
            draw(expressions(depth=depth - 1)), draw(expressions(depth=depth - 1))
        )
    if kind == "prox":
        return SProx(
            draw(terms()), draw(terms()), draw(st.integers(0, 5)), draw(st.booleans())
        )
    return SList(tuple(draw(st.lists(expressions(depth=depth - 1), max_size=3))))


@given(expressions())
def test_canonical_form_round_trips_through_the_parser(node):
    """parse(serialize(canonical(x))) is already canonical — the canonical
    form is a real, parseable expression, not a private encoding."""
    canonical = canonical_expression(node)
    reparsed = parse_expression(canonical.serialize())
    assert reparsed == canonical
    assert canonical_expression(reparsed) == canonical


@given(expressions())
def test_canonicalization_is_idempotent(node):
    once = canonical_expression(node)
    assert canonical_expression(once) == once


@given(st.lists(expressions(depth=1), min_size=2, max_size=4))
def test_commutative_children_ignore_order(children):
    forward = SList(tuple(children))
    backward = SList(tuple(reversed(children)))
    assert canonical_text(forward) == canonical_text(backward)


class TestQueryCacheKey:
    def test_source_order_is_irrelevant(self):
        query = SQuery(filter_expression=expr('(title "x")'))
        assert query_cache_key(query, ["s2", "s1"]) == query_cache_key(
            query, ["s1", "s2", "s1"]
        )

    def test_source_set_is_part_of_the_key(self):
        query = SQuery(filter_expression=expr('(title "x")'))
        assert query_cache_key(query, ["s1"]) != query_cache_key(query, ["s2"])

    def test_equivalent_expressions_share_a_key(self):
        sources = ["s1", "s2"]
        a = SQuery(filter_expression=expr('((title "x") and (author "y"))'))
        b = SQuery(filter_expression=expr('((author "y") and (title "x"))'))
        assert query_cache_key(a, sources) == query_cache_key(b, sources)

    def test_answer_fields_sort_but_sort_keys_do_not(self):
        base = dict(filter_expression=expr('(title "x")'))
        a = SQuery(**base, answer_fields=("title", "author"))
        b = SQuery(**base, answer_fields=("author", "title"))
        assert query_cache_key(a, ["s"]) == query_cache_key(b, ["s"])

        c = SQuery(**base, sort_keys=(SortKey("title"), SortKey("author")))
        d = SQuery(**base, sort_keys=(SortKey("author"), SortKey("title")))
        assert query_cache_key(c, ["s"]) != query_cache_key(d, ["s"])

    def test_limits_and_flags_are_in_the_key(self):
        base = dict(filter_expression=expr('(title "x")'))
        assert query_cache_key(
            SQuery(**base, max_number_documents=10), ["s"]
        ) != query_cache_key(SQuery(**base, max_number_documents=20), ["s"])
        assert query_cache_key(
            SQuery(**base, min_document_score=0.5), ["s"]
        ) != query_cache_key(SQuery(**base), ["s"])
        assert query_cache_key(
            SQuery(**base, drop_stop_words=False), ["s"]
        ) != query_cache_key(SQuery(**base), ["s"])

    def test_floors_differing_in_any_digit_get_different_keys(self):
        base = dict(filter_expression=expr('(title "x")'))
        for a, b in [(0.12345678, 0.12345679), (1234567.5, 1234567.25), (1e-9, 1.0000001e-9)]:
            assert query_cache_key(
                SQuery(**base, min_document_score=a), ["s"]
            ) != query_cache_key(SQuery(**base, min_document_score=b), ["s"])
        # The same floor as an int and as a float is one key.
        assert query_cache_key(
            SQuery(**base, min_document_score=1), ["s"]
        ) == query_cache_key(SQuery(**base, min_document_score=1.0), ["s"])
