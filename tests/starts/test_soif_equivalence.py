"""The single-pass result decode against the reader it replaced.

``tests/oracles/soif_decode.py`` is the previous decode, verbatim.  The
production reader must accept and reject exactly what it did — for
well-formed streams, for truncations, byte flips and random bytes —
and the production ``SQResults`` decode must rebuild what the encoder
was given and agree with the oracle field for field.

The one sanctioned difference: where the oracle lets a
``UnicodeDecodeError`` escape (or, decoding results, a ``ValueError`` or
a parser error), production raises ``SoifSyntaxError``.

Production documents build ``fields``, ``sources`` and ``version`` when
first read; ``facts`` reads all of them, so every comparison below also
checks that a stream accepted at decode never fails later.
"""

from __future__ import annotations

import dataclasses

from hypothesis import given, strategies as st

from repro.starts.ast import SAnd, SAndNot, SList, SProx, STerm
from repro.starts.attributes import FieldRef
from repro.starts.errors import SoifSyntaxError, StartsError
from repro.starts.lstring import LString
from repro.starts.parser import parse_expression
from repro.starts.query import SQuery
from repro.starts.results import SQRDocument, SQResults, TermStats
from repro.starts.soif import SoifObject, parse_soif, parse_soif_stream
from tests.oracles.soif_decode import (
    oracle_parse_soif,
    oracle_parse_soif_stream,
    oracle_results_from_soif_stream,
)
from tests.starts.test_query_roundtrip import expressions as query_expressions

REJECTED = "rejected"


def production(decode, data):
    """What production makes of ``data``; only the typed error may escape."""
    try:
        return decode(data)
    except SoifSyntaxError:
        return REJECTED


def oracle(decode, data):
    try:
        return decode(data)
    except (SoifSyntaxError, UnicodeDecodeError):
        return REJECTED


def assert_readers_agree(data: bytes):
    expected = oracle(oracle_parse_soif_stream, data)
    assert production(parse_soif_stream, data) == expected
    assert production(parse_soif, data) == oracle(oracle_parse_soif, data)
    return expected


# -- object streams ----------------------------------------------------------

#: Multi-byte and emoji text, the framing characters, CR and LF.
values = st.text(
    alphabet=st.one_of(
        st.sampled_from("{}@: \n\r\tén🔍"), st.characters(exclude_categories=["Cs"])
    ),
    max_size=30,
)
#: Repeated and mixed-case names, plus clean generated ones.
names = st.one_of(
    st.sampled_from(["Field", "field", "FIELD", "v", "Tïtle", "a b", "x}y", "@z"]),
    st.text(alphabet="ABCdef-09", min_size=1, max_size=8),
)
templates = st.one_of(
    st.sampled_from(["SQResults", "SQRDocument", "T"]),
    st.text(alphabet="ABCdefé", min_size=1, max_size=8),
)
soif_objects = st.builds(
    SoifObject, templates, st.lists(st.tuples(names, values), max_size=6)
)
#: What may stand between two attributes, and between two objects.
separators = st.sampled_from(["\n", "\r\n", "\n\n", " \t\n", "\x0b\x0c\n"])


@st.composite
def rendered_streams(draw):
    """``(objects, bytes)``: a well-formed stream in one of the layouts
    the reader accepts (``SoifObject.dump`` emits only the first)."""
    objects = draw(st.lists(soif_objects, max_size=4))
    separator = draw(separators)
    after_colon = draw(st.sampled_from([" ", ""]))
    chunks = []
    for obj in objects:
        chunks.append(f"@{obj.template}{{{separator}")
        for name, value in obj:
            # Without the conventional space a value's own leading space
            # would be eaten as that space; keep it where needed.
            space = " " if value.startswith(" ") else after_colon
            nbytes = len(value.encode("utf-8"))
            chunks.append(f"{name}{{{nbytes}}}:{space}{value}{separator}")
        chunks.append("}")
        chunks.append(draw(separators))
    if chunks and draw(st.booleans()):
        chunks.pop()  # no trailing newline
    return objects, "".join(chunks).encode("utf-8")


@given(rendered_streams())
def test_well_formed_streams_decode_to_the_generated_objects(case):
    objects, data = case
    assert assert_readers_agree(data) == objects


@given(st.lists(soif_objects, max_size=4))
def test_dump_round_trips(objects):
    assert parse_soif_stream("\n".join(obj.dump() for obj in objects)) == objects


@given(rendered_streams(), st.data())
def test_truncations_agree(case, data):
    _, stream = case
    cut = data.draw(st.integers(0, len(stream)))
    assert_readers_agree(stream[:cut])


@given(rendered_streams(), st.data())
def test_single_byte_flips_agree(case, data):
    _, stream = case
    if not stream:
        return
    index = data.draw(st.integers(0, len(stream) - 1))
    flipped = stream[index] ^ data.draw(st.integers(1, 255))
    assert_readers_agree(stream[:index] + bytes([flipped]) + stream[index + 1 :])


@given(st.binary(max_size=200))
def test_random_bytes_agree(data):
    assert_readers_agree(data)


@given(
    st.text(alphabet="@{}: \n\r\t-+_0123456789abé٣", max_size=60).map(
        lambda text: text.encode("utf-8")
    )
)
def test_framing_shaped_bytes_agree(data):
    """Denser in framing characters and odd byte counts (signs,
    underscores, non-ASCII digits), so the header paths get fuzzed."""
    assert_readers_agree(data)


@given(
    st.one_of(
        st.integers(-3, 12).map(str),
        st.sampled_from(["+3", "1_0", " 3 ", "\t2", "٣", "0x3", "1e1", "3.0", "", "abc"]),
    ),
    values,
    st.sampled_from([": ", ":", " :", ""]),
)
def test_odd_byte_counts_agree(count_text, value, colon):
    """Negative, signed, padded, non-ASCII and non-numeric counts, and
    counts that disagree with the value's real length."""
    assert_readers_agree(f"@T{{\nv{{{count_text}}}{colon}{value}\n}}\n".encode("utf-8"))


# -- result streams ----------------------------------------------------------

RESERVED = ("version", "rawscore", "sources", "linkage", "termstats", "docsize", "doccount")

words = st.text(alphabet="abcdeé", min_size=1, max_size=6)
term_nodes = st.builds(
    lambda word, field: STerm(LString(word), FieldRef(field)),
    words,
    st.sampled_from(["body-of-text", "title", "author"]),
)
finite = st.floats(allow_nan=False)
counts = st.integers(-5, 10**6)
tokens = st.text(alphabet="ABCabc-1.", min_size=1, max_size=8)
field_names = st.one_of(
    st.sampled_from(["title", "Title", "author", "date/time-last-modified", "Tïtle", "名前"]),
    st.text(alphabet="ABCdef-", min_size=1, max_size=8),
).filter(lambda name: name.lower() not in RESERVED)
expressions = st.sampled_from(
    [
        None,
        parse_expression('(author "Ullman")'),
        parse_expression('((author "Ullman") and (title stem "databases"))'),
        parse_expression('list((body-of-text "distributed") (body-of-text "databases"))'),
    ]
)


@st.composite
def results(draw):
    # Every document reports on the same few query terms.
    pool = draw(st.lists(term_nodes, min_size=1, max_size=3))
    term_stats = st.lists(
        st.builds(TermStats, st.sampled_from(pool), counts, finite, counts), max_size=4
    ).map(tuple)
    documents = st.builds(
        SQRDocument,
        linkage=values,
        raw_score=finite,
        sources=st.lists(tokens, max_size=3).map(tuple),
        fields=st.dictionaries(field_names, values, max_size=4),
        term_stats=term_stats,
        doc_size=counts,
        doc_count=counts,
        version=tokens,
    )
    return draw(
        st.builds(
            SQResults,
            sources=st.lists(tokens, max_size=3).map(tuple),
            actual_filter_expression=expressions,
            actual_ranking_expression=expressions,
            documents=st.lists(documents, max_size=4).map(tuple),
            version=tokens,
        )
    )


def facts(decoded: SQResults):
    """Every field of a decode, with the answer fields' order."""
    header = dataclasses.asdict(dataclasses.replace(decoded, documents=()))
    return header, [
        dataclasses.asdict(document) | {"fields": list(document.fields.items())}
        for document in decoded.documents
    ]


@given(results())
def test_results_round_trip_and_match_the_oracle(original):
    stream = original.to_soif_stream()
    decoded = SQResults.from_soif_stream(stream)
    assert decoded == original
    assert facts(decoded) == facts(original)
    assert facts(decoded) == facts(oracle_results_from_soif_stream(stream))
    assert SQResults.from_soif_stream(stream.encode("utf-8")) == original


@given(results(), st.data())
def test_reserved_names_in_odd_case_and_duplicated(original, data):
    """Reserved attributes match in any case and their first value wins;
    later duplicates are ignored, never turned into answer fields."""
    objects = parse_soif_stream(original.to_soif_stream())
    noisy = [objects[0]]
    for obj in objects[1:]:
        pairs = [
            (data.draw(st.sampled_from([name, name.lower(), name.upper()])), value)
            if name.lower() in RESERVED
            else (name, value)
            for name, value in obj
        ]
        for _ in range(data.draw(st.integers(0, 3))):
            # Always-present attributes, so the original stays first.
            name = data.draw(st.sampled_from(["Version", "RawScore", "linkage", "DocSize"]))
            pairs.append((data.draw(st.sampled_from([name, name.upper()])), "7"))
        noisy.append(SoifObject(obj.template, pairs))
    stream = "\n".join(obj.dump() for obj in noisy)
    decoded = SQResults.from_soif_stream(stream)
    assert facts(decoded) == facts(original)
    assert facts(decoded) == facts(oracle_results_from_soif_stream(stream))


# -- mutated result streams ---------------------------------------------------


def assert_result_decodes_agree(data: bytes):
    """Same accept / reject, and the same facts of what is accepted."""
    try:
        expected = oracle_results_from_soif_stream(data)
    except (StartsError, UnicodeDecodeError, ValueError):
        expected = REJECTED
    decoded = production(SQResults.from_soif_stream, data)
    if REJECTED in (expected, decoded):
        assert decoded == expected
    else:
        # ``repr``: a flipped byte can spell ``nan``, which is not ``==`` itself.
        assert repr(facts(decoded)) == repr(facts(expected))


result_streams = results().map(lambda original: original.to_soif_stream().encode("utf-8"))


@given(result_streams, st.data())
def test_truncated_result_streams_agree(stream, data):
    assert_result_decodes_agree(stream[: data.draw(st.integers(0, len(stream)))])


@given(result_streams, st.data())
def test_result_streams_with_one_byte_flipped_agree(stream, data):
    index = data.draw(st.integers(0, len(stream) - 1))
    flipped = stream[index] ^ data.draw(st.integers(1, 255))
    assert_result_decodes_agree(stream[:index] + bytes([flipped]) + stream[index + 1 :])


@given(
    result_streams,
    st.one_of(
        st.binary(min_size=1, max_size=12),
        st.text(alphabet="@{}: \n\r\t-+_0123456789abé٣", min_size=1, max_size=12).map(
            lambda text: text.encode("utf-8")
        ),
    ),
    st.booleans(),
    st.data(),
)
def test_result_streams_with_bytes_spliced_in_agree(stream, chunk, overwrite, data):
    """Random and framing-shaped bytes, inserted or written over what
    was there — which also moves values out from under their counts."""
    index = data.draw(st.integers(0, len(stream)))
    rest = stream[index + len(chunk) :] if overwrite else stream[index:]
    assert_result_decodes_agree(stream[:index] + chunk + rest)


# -- decoding against the query the stream answers ---------------------------


def degraded(node, draw):
    """``node`` as a source may report it back (§4.2, Example 7): a term
    dropped (a stop word, an unsupported field), a field or modifier
    dropped, ``prox`` degraded to ``and``, a Free-form-text term replaced
    by the expression a native parser made of its words."""
    if isinstance(node, STerm):
        change = draw(st.sampled_from(["keep", "drop", "field", "modifier", "splice"]))
        if change == "drop":
            return None
        if change == "field":
            return dataclasses.replace(node, field=None)
        if change == "modifier":
            return dataclasses.replace(node, modifiers=node.modifiers[1:])
        if change == "splice":
            words = node.lstring.text.split() or ["x"]
            spliced = tuple(STerm(LString(word), FieldRef("body-of-text")) for word in words)
            return spliced[0] if len(spliced) == 1 else SAnd(spliced)
        return node
    if isinstance(node, SProx):
        return SAnd((node.left, node.right)) if draw(st.booleans()) else node
    if isinstance(node, SAndNot):
        positive, negative = degraded(node.positive, draw), degraded(node.negative, draw)
        if positive is None or negative is None:
            return positive
        return SAndNot(positive, negative)
    kept = tuple(
        pruned for child in node.children if (pruned := degraded(child, draw)) is not None
    )
    if isinstance(node, SList):
        return SList(kept) if kept else None
    if len(kept) < 2:
        return kept[0] if kept else None
    return type(node)(kept)


def reported_terms(term: STerm) -> list[STerm]:
    """The ``TermStats`` terms a source may write for a sent ``term``: the
    term itself, its field and l-string alone (what ``respond`` writes),
    or one row per word of a multi-word l-string."""
    return [
        term,
        STerm(term.lstring, term.field),
        *(STerm(LString(word), term.field) for word in term.lstring.text.split()),
    ]


def noisy(text: str) -> str:
    """A non-canonical spelling of the same expression: padded
    parentheses, a weight's leading zero doubled."""
    return text.replace("(", "( ").replace(")", " )").replace(" 0.", " 00.")


HEADER_ENTRIES = [
    ("ActualRankingExpression", "list("),
    ("ActualFilterExpression", '("x" 7)'),
]
TERM_STATS_ENTRIES = [
    '((a "x") and (b "y")) 1 0.5 2',  # not a term
    '(body-of-text "x") 1 1 1.5',  # df is not an integer
    '(body-of-text "x 1 1 1',  # term does not parse
]


@st.composite
def answered_queries(draw):
    """``(query, stream, echoed)``: a result stream a source may send for
    ``query``; ``echoed`` where its headers are the query's own text."""
    query = SQuery(
        filter_expression=draw(st.none() | query_expressions),
        ranking_expression=draw(st.none() | query_expressions),
    )
    echoed = draw(st.booleans())
    actual = [
        expression if echoed or expression is None else degraded(expression, draw)
        for expression in (query.filter_expression, query.ranking_expression)
    ]
    pool = [node for term in query.expression_terms() for node in reported_terms(term)]
    term_stats = st.lists(
        st.builds(
            TermStats,
            st.sampled_from(pool or [STerm(LString("x"), FieldRef("title"))]),
            counts,
            finite,
            counts,
        ),
        max_size=4,
    ).map(tuple)
    documents = st.builds(
        SQRDocument,
        linkage=tokens,
        raw_score=finite,
        sources=st.just(("S",)),
        term_stats=term_stats,
        doc_size=counts,
        doc_count=counts,
    )
    stream = SQResults(
        sources=("S",),
        actual_filter_expression=actual[0],
        actual_ranking_expression=actual[1],
        documents=tuple(draw(st.lists(documents, max_size=4))),
    ).to_soif_stream()
    objects = parse_soif_stream(stream)
    if not echoed and draw(st.booleans()):
        objects = [
            SoifObject(obj.template, [(name, noisy(value)) for name, value in obj])
            for obj in objects
        ]
    if draw(st.booleans()):
        # One bad entry, first so that it is the value read.
        index = draw(st.integers(0, len(objects) - 1))
        if index == 0:
            entry = draw(st.sampled_from(HEADER_ENTRIES))
        else:
            entry = ("TermStats", draw(st.sampled_from(TERM_STATS_ENTRIES)))
        objects[index] = SoifObject(objects[index].template, [entry, *objects[index]])
        echoed = False
    return query, "\n".join(obj.dump() for obj in objects).encode("utf-8"), echoed


@given(answered_queries())
def test_a_decode_against_its_query_equals_the_decode_without_it(case):
    """The lookup only saves work: with or without the query, the decode
    accepts and rejects the same streams and yields the same facts, and
    both agree with the oracle.  Where the headers echo the query's own
    text they decode to the query's own nodes."""
    query, data, echoed = case
    assert_result_decodes_agree(data)
    seeded = production(lambda stream: SQResults.from_soif_stream(stream, query), data)
    unseeded = production(SQResults.from_soif_stream, data)
    if REJECTED in (seeded, unseeded):
        assert seeded == unseeded
        return
    assert facts(seeded) == facts(unseeded)
    assert seeded == unseeded
    if echoed:
        nodes = [query.filter_expression, query.ranking_expression]
        nodes += query.expression_terms()
        for actual in (seeded.actual_filter_expression, seeded.actual_ranking_expression):
            assert actual is None or any(actual is node for node in nodes)


@given(results(), st.data())
def test_byte_counts_that_end_inside_a_character_are_rejected_at_decode(original, data):
    """The buffer as a whole stays valid UTF-8; only the one value whose
    count was shortened stops in the middle of its last character."""
    stream = original.to_soif_stream()
    value = data.draw(st.text(alphabet="aé🔍", min_size=0, max_size=5)) + "é"
    nbytes = len(value.encode("utf-8"))
    # Before the brace that closes the header, or the last object.
    brace = stream.index("}\n") if data.draw(st.booleans()) else len(stream) - 2
    cut = f"title{{{nbytes - 1}}}: {value}\n"
    mutated = (stream[:brace] + cut + stream[brace:]).encode("utf-8")
    assert production(SQResults.from_soif_stream, mutated) == REJECTED
    assert_result_decodes_agree(mutated)
