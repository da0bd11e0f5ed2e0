"""``parse(print(x)) == x`` over generated expressions, not generated text.

``test_parser_fuzz.py`` throws text at the parser; almost none of it is
a query.  Here hypothesis builds the AST — terms with and without field,
modifiers, language-qualified l-strings and weights, nested under every
operator — and the serialization must parse back to the same tree, so
the expression a source evaluates is the one the client holds.

One thing is kept out of the generated strings: the digraphs `` and '',
which the parser folds into a double quote wherever they stand so the
paper's typeset examples parse verbatim.
"""

from hypothesis import given, strategies as st

from repro.starts import BASIC1, parse_expression
from repro.starts.ast import SAnd, SAndNot, SList, SOr, SProx, STerm
from repro.starts.attributes import FieldRef, ModifierRef
from repro.starts.lstring import LString
from repro.text.langtags import parse_language_tag

_sets = st.sampled_from([None, "basic-1"])

texts = st.one_of(
    st.text(max_size=12),
    st.text(alphabet='"\\[](){} \t\nab', max_size=12),
).filter(lambda text: "``" not in text and "''" not in text)

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
