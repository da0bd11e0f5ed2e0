"""The per-response answer assembly against the per-hit one it replaced.

``tests/oracles/answer_assembly.py`` is ``StartsSource.search`` as it
was: answer-field names canonicalised per hit, a fresh ``STerm`` per hit
and term, ``DocSize`` from the joined and encoded text.  Over generated
collections and queries the production search must return the same
``SQResults`` — documents, order, fields and their order, TermStats,
sizes — and put the same bytes on the wire.
"""

from __future__ import annotations

from dataclasses import replace

from hypothesis import given, settings, strategies as st

from repro.engine import fields as F
from repro.engine.documents import Document
from repro.resource import Resource
from repro.source import SourceCapabilities, StartsSource
from repro.starts.ast import SList, STerm
from repro.starts.attributes import FieldRef
from repro.starts.lstring import LString
from repro.starts.query import SortKey, SQuery
from tests.oracles.answer_assembly import (
    OracleSource,
    oracle_search,
    oracle_size_kbytes,
)
from tests.oracles.soif_encode import oracle_results_to_soif_stream

VOCABULARY = ["data", "index", "query", "merge", "rank", "source", "café", "niño", "über"]

words = st.sampled_from(VOCABULARY)
prose = st.lists(words, min_size=1, max_size=12).map(" ".join)
#: Text fields may be absent or empty; some values are not ASCII.
optional_prose = st.one_of(st.none(), st.just(""), prose, st.just("naïve 🔍 search"))


@st.composite
def collections(draw):
    documents = []
    for index in range(draw(st.integers(1, 8))):
        fields = {
            F.TITLE: draw(optional_prose),
            F.AUTHOR: draw(optional_prose),
            F.BODY_OF_TEXT: draw(prose),
            F.ABSTRACT: draw(optional_prose),
            F.DATE_LAST_MODIFIED: draw(
                st.sampled_from([None, "1996-03-31", "1997-01-15"])
            ),
            F.LANGUAGES: draw(st.sampled_from([None, "en-US", "en-US es"])),
        }
        documents.append(
            Document(
                f"http://docs.example.org/{index}",
                {name: value for name, value in fields.items() if value is not None},
            )
        )
    return documents


def term(word: str, field: str) -> STerm:
    return STerm(LString(word), FieldRef(field))


query_terms = st.builds(term, words, st.sampled_from([F.BODY_OF_TEXT, F.TITLE, F.ANY]))
#: Mixed case, the alias, a duplicate, ``linkage`` and an unknown field.
answer_field_names = st.sampled_from(
    [
        "title",
        "Title",
        "AUTHOR",
        "body-of-text",
        "abstract",
        "date-last-modified",
        "Date/Time-Last-Modified",
        "linkage",
        "Linkage",
        "languages",
        "no-such-field",
    ]
)
sort_orders = st.sampled_from(
    [
        (SortKey("score", descending=True),),
        (SortKey("score", descending=False),),
        (SortKey("title", descending=False),),
        (SortKey("author", descending=True), SortKey("score", descending=True)),
    ]
)


@st.composite
def queries(draw):
    ranking = draw(st.lists(query_terms, min_size=1, max_size=3))
    return SQuery(
        filter_expression=draw(st.one_of(st.none(), query_terms)),
        ranking_expression=ranking[0] if len(ranking) == 1 else SList(tuple(ranking)),
        answer_fields=tuple(draw(st.lists(answer_field_names, max_size=6))),
        sort_keys=draw(sort_orders),
        max_number_documents=draw(st.integers(0, 10)),
    )


def assert_same_answer(actual, expected):
    assert actual == expected
    for ours, theirs in zip(actual.documents, expected.documents):
        assert list(ours.fields) == list(theirs.fields)
    assert actual.to_soif_stream() == oracle_results_to_soif_stream(expected)


@settings(deadline=None)
@given(collections(), queries(), st.booleans(), st.sampled_from([None, 2]))
def test_search_equals_the_oracle_hit_for_hit(documents, query, export, cap):
    source = StartsSource(
        "S-1",
        documents,
        capabilities=replace(SourceCapabilities.full_basic1(), result_cap=cap),
        export_term_stats=export,
    )
    assert_same_answer(source.search(query), oracle_search(source, query))


@settings(deadline=None)
@given(collections(), collections(), queries())
def test_resource_merge_equals_the_oracle(first, second, query):
    """``Sources`` names a second local source; the linkages overlap, so
    the resource's duplicate merge runs over both assemblies."""
    query = query.with_sources("S-2")
    answers = [
        Resource("R", [kind("S-1", first), kind("S-2", second)]).search("S-1", query)
        for kind in (StartsSource, OracleSource)
    ]
    assert_same_answer(*answers)


@given(collections())
def test_doc_size_counts_the_same_bytes(documents):
    big = Document("http://x/big", {F.BODY_OF_TEXT: "é" * 2000, F.TITLE: "t" * 700})
    for document in [*documents, big, Document("http://x/empty", {})]:
        assert document.size_kbytes() == oracle_size_kbytes(document)


def test_one_term_object_per_response_and_none_across_responses():
    source = StartsSource(
        "S-1",
        [
            Document(f"http://x/{index}", {F.BODY_OF_TEXT: "data index data query"})
            for index in range(4)
        ],
    )
    query = SQuery(
        ranking_expression=SList(
            (term("data", F.BODY_OF_TEXT), term("index", F.BODY_OF_TEXT))
        )
    )

    def term_objects(results):
        return {
            id(stats.term) for document in results.documents for stats in document.term_stats
        }

    first, second = source.search(query), source.search(query)
    assert len(first.documents) == 4
    assert len(term_objects(first)) == 2  # one per distinct term, shared by the hits
    assert not term_objects(first) & term_objects(second)  # the memo died with the call
