"""``parse(print(x)) == x`` over generated expressions, not generated text.

``test_parser_fuzz.py`` throws text at the parser; almost none of it is
a query.  Here hypothesis builds the AST — terms with and without field,
modifiers, language-qualified l-strings and weights, nested under every
operator — and the serialization must parse back to the same tree, so
the expression a source evaluates is the one the client holds.  The
same holds for a whole ``SQuery`` through its SOIF object, and it is
what lets a client decode an answer by looking up the text it sent
(``SQResults.from_soif_stream(data, query)``).
"""

from dataclasses import replace

from hypothesis import given, strategies as st

from repro.starts import BASIC1, parse_expression
from repro.starts.ast import SAnd, SAndNot, SList, SOr, SProx, STerm
from repro.starts.attributes import FieldRef, ModifierRef
from repro.starts.lstring import LString
from repro.starts.query import SCORE_SORT_FIELD, SortKey, SQuery
from repro.starts.soif import parse_soif
from repro.text.langtags import parse_language_tag

_sets = st.sampled_from([None, "basic-1"])

#: Any text, and text dense in the grammar's own characters — the
#: typeset quotes' two backquotes and two apostrophes among them.
texts = st.one_of(
    st.text(max_size=12),
    st.text(alphabet='"\\[](){} \t\nab`\'', max_size=12),
)

lstrings = st.builds(
    LString,
    texts,
    st.sampled_from([None, "en", "en-US", "es", "fr-CA"]).map(
        lambda tag: tag and parse_language_tag(tag)
    ),
)

weights = st.one_of(
    st.just(1.0),
    st.sampled_from([0.7, 0.3, 0.25, 0.33333333, 1e-5, 4.9e-5, 5e-324]),
    st.floats(min_value=0.0, max_value=1.0, exclude_min=True),
)

terms = st.builds(
    STerm,
    lstrings,
    st.none() | st.builds(FieldRef, st.sampled_from(sorted(BASIC1.fields)), _sets),
    st.lists(
        st.builds(ModifierRef, st.sampled_from(sorted(BASIC1.modifiers)), _sets),
        max_size=3,
    ).map(tuple),
    weights,
)


def _operators(children):
    several = st.lists(children, min_size=2, max_size=4).map(tuple)
    return st.one_of(
        st.builds(SAnd, several),
        st.builds(SOr, several),
        st.builds(SAndNot, children, children),
        st.builds(SProx, terms, terms, st.integers(0, 9), st.booleans()),
        st.builds(SList, st.lists(children, max_size=4).map(tuple)),
    )


expressions = st.recursive(terms, _operators, max_leaves=8)


@given(expressions)
def test_serialized_expression_parses_back_to_itself(expression):
    """Equality covers every weight exactly: a weight in (0, 1] leaves as
    a NUMBER the parser accepts — no exponent form, not rounded to zero,
    not rounded at all."""
    assert parse_expression(expression.serialize()) == expression


def over_the_wire(query: SQuery) -> SQuery:
    return SQuery.from_soif(parse_soif(query.to_soif().dump()))


def test_a_term_with_typeset_quote_characters_crosses_the_wire():
    """Two apostrophes or two backquotes inside a quoted l-string are
    text: the typeset-quote form opens only where a token starts."""
    query = SQuery(
        ranking_expression=SList(
            (STerm(LString("rock''n roll")), STerm(LString("jazz")), STerm(LString("``x")))
        )
    )
    assert query.to_soif().get("RankingExpression") == 'list("rock\'\'n roll" "jazz" "``x")'
    assert over_the_wire(query) == query
    assert parse_expression("list(``rock'' \"roll''\")") == SList(
        (STerm(LString("rock")), STerm(LString("roll''")))
    )


#: No whitespace (split on), no comma (the SortByFields separator).
words = st.text(alphabet="abcXYZ-_/.09é", min_size=1, max_size=8)
#: Values the decode keeps verbatim; only an empty one reads as the default.
verbatim = st.text(min_size=1, max_size=10)

queries = st.builds(
    SQuery,
    filter_expression=st.none() | expressions,
    ranking_expression=st.none() | expressions,
    drop_stop_words=st.booleans(),
    default_attribute_set=verbatim,
    default_language=verbatim,
    sources=st.lists(words, max_size=3).map(tuple),
    answer_fields=st.lists(words, max_size=4).map(tuple),
    sort_keys=st.lists(st.builds(SortKey, words, st.booleans()), max_size=3).map(tuple),
    min_document_score=st.floats(allow_nan=False),
    max_number_documents=st.integers(-5, 10**6),
    version=verbatim,
)


@given(queries)
def test_a_query_crosses_the_wire_unchanged(query):
    """Every attribute of a generated query comes back as sent.  An empty
    ``SortByFields`` reads as the default score order, which is what an
    empty sort means to a source."""
    if not query.sort_keys:
        query = replace(query, sort_keys=(SortKey(SCORE_SORT_FIELD, descending=True),))
    assert over_the_wire(query) == query
