"""The one-pass answer writer against the object assembly it replaced.

``tests/oracles/answer_assembly.py`` is ``StartsSource.search`` as it
was: an ``SQRDocument`` per hit with its answer-field names
canonicalised, a fresh ``STerm`` per hit and term, ``DocSize`` from the
joined and encoded text, then the sort.  Over generated collections and
queries ``StartsSource.respond`` — and ``Resource.respond``, with and
without a second source — must write exactly the bytes
``tests/oracles/soif_encode.py`` makes of the oracle's answer, and
``search``, its decode, must return the same ``SQResults``: documents,
order, fields and their order, TermStats, sizes.

``respond`` keeps each document's linkage, answer-field, ``DocSize`` and
``DocCount`` lines in a memo that lives as long as the document store;
``AnswerLinesStateMachine`` holds its bytes, and ``SourceLanguages``,
to the oracles across every way a store changes.
"""

from __future__ import annotations

import pathlib
import tempfile
from dataclasses import replace

import pytest
from hypothesis import given, settings, strategies as st
from hypothesis.stateful import (
    RuleBasedStateMachine,
    invariant,
    precondition,
    rule,
    run_state_machine_as_test,
)

from repro.engine import fields as F
from repro.conformance import check_source
from repro.engine.documents import _DOC_MEMO_LIMIT, Document
from repro.engine.search import SearchEngine
from repro.resource import Resource
from repro.source import SourceCapabilities, StartsSource
from repro.vendors import build_vendor_source
from repro.starts.ast import SList, STerm
from repro.starts.attributes import FieldRef
from repro.starts.lstring import LString
from repro.starts.query import SortKey, SQuery
from repro.starts.results import SQResults
from tests.oracles.answer_assembly import (
    OracleSource,
    oracle_search,
    oracle_size_kbytes,
)
from tests.oracles.soif_encode import oracle_results_to_soif_stream
from tests.oracles.source_languages import oracle_source_languages

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
#: A stop word or a field no source supports: translation drops the term.
pruned_terms = st.builds(
    term,
    st.sampled_from(["the", "data"]),
    st.sampled_from([F.BODY_OF_TEXT, "no-such-field"]),
)
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
#: Score both ways, linkage, fields the answer may or may not carry (an
#: alias and a capitalised name among them), several keys, none.
sort_orders = st.sampled_from(
    [
        (SortKey("score", descending=True),),
        (SortKey("score", descending=False),),
        (SortKey("linkage", descending=False),),
        (SortKey("title", descending=False),),
        (SortKey("Date/Time-Last-Modified", descending=True),),
        (SortKey("author", descending=True), SortKey("score", descending=True)),
        (SortKey("Title", descending=False), SortKey("linkage", descending=True)),
        (),
    ]
)


def expression(terms):
    return terms[0] if len(terms) == 1 else SList(tuple(terms))


@st.composite
def queries(draw):
    terms = st.one_of(query_terms, pruned_terms)
    ranking = draw(st.one_of(st.none(), st.lists(terms, min_size=1, max_size=3)))
    # A query needs one of the two: without a ranking it is filter-only.
    filter_ = draw(terms if ranking is None else st.one_of(st.none(), terms))
    return SQuery(
        filter_expression=filter_,
        ranking_expression=None if ranking is None else expression(ranking),
        answer_fields=tuple(draw(st.lists(answer_field_names, max_size=6))),
        sort_keys=draw(sort_orders),
        min_document_score=draw(st.sampled_from([0.0, 0.0, 0.1, 0.3])),
        max_number_documents=draw(st.integers(0, 10)),
    )


def oracle_bytes(results) -> bytes:
    return oracle_results_to_soif_stream(results).encode("utf-8")


def assert_same_answer(actual, expected):
    assert actual == expected
    for ours, theirs in zip(actual.documents, expected.documents):
        assert list(ours.fields) == list(theirs.fields)
    assert actual.to_soif_stream() == oracle_results_to_soif_stream(expected)


def source_of(documents, export, cap):
    return StartsSource(
        "S-1",
        documents,
        capabilities=replace(SourceCapabilities.full_basic1(), result_cap=cap),
        export_term_stats=export,
    )


@settings(deadline=None)
@given(collections(), queries(), st.booleans(), st.sampled_from([None, 2]))
def test_respond_writes_the_oracle_bytes(documents, query, export, cap):
    source = source_of(documents, export, cap)
    assert source.respond(query) == oracle_bytes(oracle_search(source, query))


@settings(deadline=None)
@given(collections(), queries(), st.booleans(), st.sampled_from([None, 2]))
def test_search_equals_the_oracle_hit_for_hit(documents, query, export, cap):
    source = source_of(documents, export, cap)
    assert_same_answer(source.search(query), oracle_search(source, query))


def resources(first, second):
    """The same two collections behind production and oracle sources."""
    return [
        Resource("R", [kind("S-1", first), kind("S-2", second)])
        for kind in (StartsSource, OracleSource)
    ]


@settings(deadline=None)
@given(collections(), collections(), queries(), st.booleans())
def test_resource_respond_writes_the_oracle_bytes(first, second, query, both):
    """With ``Sources`` naming the second local source the linkages
    overlap, so the resource's duplicate merge runs over both answers."""
    if both:
        query = query.with_sources("S-2")
    ours, theirs = resources(first, second)
    assert ours.respond("S-1", query) == oracle_bytes(theirs.search("S-1", query))


@settings(deadline=None)
@given(collections(), collections(), queries())
def test_resource_merge_equals_the_oracle(first, second, query):
    query = query.with_sources("S-2")
    ours, theirs = resources(first, second)
    assert_same_answer(ours.search("S-1", query), theirs.search("S-1", query))


def test_respond_writes_the_oracle_bytes_over_the_large_answers_world():
    """Every seed-1 query of the suite's ``large_answers`` workload at
    every one of its sources: all vendors, every answer field, top 25."""
    from benchmarks.suite.workloads import workload_named
    from benchmarks.suite.worlds import generate_inputs

    inputs = generate_inputs(workload_named("large_answers"), 1)
    answered = 0
    for spec in inputs.sources:
        source = build_vendor_source(spec.vendor, spec.source_id, spec.documents)
        for query in inputs.queries:
            written = source.respond(query)
            assert written == oracle_bytes(oracle_search(source, query))
            answered += written.count(b"@SQRDocument{")
    assert answered > 10 * len(inputs.queries)


@pytest.mark.parametrize("workload", ["topk_fanout", "deep_segments"])
def test_decode_against_the_query_equals_the_decode_without_it_over_a_world(workload):
    """Every seed-1 query of the workload at every one of its sources:
    the answer decoded against its query (the client's and
    ``search``'s decode) equals the plain decode field for field — the
    two differ only in the memo the expressions and ``TermStats`` terms
    go through — and looks up the echoed ranking expression."""
    from benchmarks.suite.workloads import workload_named
    from benchmarks.suite.worlds import generate_inputs

    inputs = generate_inputs(workload_named(workload), 1)
    echoed = 0
    for spec in inputs.sources:
        source = build_vendor_source(spec.vendor, spec.source_id, spec.documents)
        for query in inputs.queries:
            written = source.respond(query)
            seeded = SQResults.from_soif_stream(written, query)
            assert seeded == SQResults.from_soif_stream(written)
            echoed += seeded.actual_ranking_expression is query.ranking_expression
    assert echoed > len(inputs.queries)


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
    def fresh_query():
        return SQuery(
            ranking_expression=SList(
                (term("data", F.BODY_OF_TEXT), term("index", F.BODY_OF_TEXT))
            )
        )

    def term_objects(results):
        return {
            id(stats.term) for document in results.documents for stats in document.term_stats
        }

    query = fresh_query()
    first, second = source.search(query), source.search(fresh_query())
    assert len(first.documents) == 4
    # One per distinct term, shared by the hits: the query's own terms,
    # which the decode looked up instead of parsing.
    assert term_objects(first) == {id(node) for node in query.ranking_expression.terms()}
    assert not term_objects(first) & term_objects(second)  # the memo died with the call
    # Without the query, each decode parses its own terms.
    unseeded = [SQResults.from_soif_stream(source.respond(query)) for _ in range(2)]
    assert len(term_objects(unseeded[0])) == 2
    assert not term_objects(unseeded[0]) & term_objects(unseeded[1])
    assert unseeded[0] == first


STEP_RANKING = SList(
    (
        term("data", F.BODY_OF_TEXT),
        term("café", F.ANY),
        term("über", F.TITLE),
        term("query", F.BODY_OF_TEXT),
    )
)
#: Asked after every step of the stateful law: answer fields repeated,
#: reordered, recased and naming ``linkage`` (sorted by a field), every
#: field in another order, none.
STEP_QUERIES = [
    SQuery(
        ranking_expression=STEP_RANKING,
        answer_fields=("Author", "TITLE", "Linkage", "title", "Body-of-Text", "author"),
        sort_keys=(SortKey("title", descending=False),),
    ),
    SQuery(
        ranking_expression=STEP_RANKING,
        answer_fields=(
            "languages", "Date/Time-Last-Modified", "abstract", "title", "author",
            "body-of-text",
        ),
        max_number_documents=10,
    ),
    SQuery(ranking_expression=STEP_RANKING, max_number_documents=10),
]


def assert_respond_writes_the_oracle_bytes(source, query):
    expected = oracle_bytes(oracle_search(source, query))
    for _ in ("cold", "warm"):
        assert source.respond(query) == expected


class AnswerLinesStateMachine(RuleBasedStateMachine):
    """``respond`` interleaved with every way a source's store changes:
    adds, removals, a replace with a changed title, flushes, merges and a
    warm reopen of the same directory under the same source.

    After every step each of ``STEP_QUERIES`` — cold, then from the memo
    — writes the oracle's bytes, and ``SourceLanguages`` is the walk it
    replaced; drawn queries and the conformance battery run between.
    """

    def __init__(self):
        super().__init__()
        self._tmp = tempfile.TemporaryDirectory()
        self.directory = pathlib.Path(self._tmp.name) / "store"
        self.source = StartsSource("S-1", engine=SearchEngine(storage_dir=self.directory))
        self.live: list[str] = []
        self.added = 0

    @rule(documents=collections(), language=st.sampled_from(["en", "es"]))
    def add(self, documents, language):
        fresh = [
            Document(f"http://docs.example.org/n{self.added + offset}", d.fields, language)
            for offset, d in enumerate(documents)
        ]
        self.added += len(fresh)
        self.live += [document.linkage for document in fresh]
        assert self.source.add_documents(fresh) == len(self.live)

    @precondition(lambda self: self.live)
    @rule(data=st.data())
    def remove(self, data):
        doomed = data.draw(
            st.lists(st.sampled_from(self.live), min_size=1, max_size=2, unique=True)
        )
        assert self.source.remove_documents(doomed) == len(doomed)
        self.live = [linkage for linkage in self.live if linkage not in doomed]

    @precondition(lambda self: self.live)
    @rule(data=st.data(), title=prose)
    def replace_title(self, data, title):
        linkage = data.draw(st.sampled_from(self.live))
        store = self.source.engine.store
        stored = store[store.by_linkage(linkage)]
        changed = {**stored.fields, F.TITLE: f"{stored.title} {title} über"}
        self.source.engine.replace(replace(stored, fields=changed))
        self.live.remove(linkage)
        self.live.append(linkage)

    @rule()
    def flush(self):
        self.source.engine.flush()

    @rule()
    def merge(self):
        self.source.engine.checkpoint(merge=True)

    @rule()
    def reopen(self):
        self.source.engine.checkpoint()
        self.source.engine.close()
        self.source.engine = SearchEngine(storage_dir=self.directory)

    @rule(query=queries())
    def respond(self, query):
        assert_respond_writes_the_oracle_bytes(self.source, query)

    @rule()
    def conforms(self):
        report = check_source(self.source)
        assert report.passed, report.failures()

    @invariant()
    def answers_and_languages_equal_the_oracles(self):
        for query in STEP_QUERIES:
            assert_respond_writes_the_oracle_bytes(self.source, query)
        expected = oracle_source_languages(self.source)
        for _ in ("cold", "warm"):
            assert self.source.metadata().source_languages == expected

    def teardown(self):
        self.source.engine.close()
        self._tmp.cleanup()


def test_answer_lines_and_languages_hold_over_any_store_history():
    run_state_machine_as_test(
        AnswerLinesStateMachine,
        settings=settings(stateful_step_count=25, deadline=None),
    )


def test_the_answer_lines_memo_stays_bounded(tmp_path):
    """A segment-backed source answers more distinct documents than the
    decoded-document memo holds: its answer-lines memo never grows past
    the same bound, and every answer is still the oracle's."""
    documents = [
        Document(
            f"http://x/{index}",
            {F.TITLE: f"café {index}", F.BODY_OF_TEXT: f"data group{index % 3}"},
        )
        for index in range(_DOC_MEMO_LIMIT + 300)
    ]
    engine = SearchEngine(storage_dir=tmp_path / "store")
    source = StartsSource("S-1", engine=engine)
    source.add_documents(documents)
    engine.flush()
    answered: set[str] = set()
    for group in ("group0", "group1", "group2", "group0"):
        for shape in (("title",), ("TITLE", "body-of-text")):
            query = SQuery(
                filter_expression=term(group, F.BODY_OF_TEXT),
                answer_fields=shape,
                max_number_documents=len(documents),
            )
            written = source.respond(query)
            assert written == oracle_bytes(oracle_search(source, query))
            assert 0 < len(source._derived[1]) <= _DOC_MEMO_LIMIT
            answered.update(document.linkage for document in source.search(query).documents)
    assert len(answered) == len(documents) > _DOC_MEMO_LIMIT
    engine.close()
