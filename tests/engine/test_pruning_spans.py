"""The pruned driver over multi-block segments: bit-exact, same decisions.

A probe pass walks its candidates in doc-id order against a term's
postings as one ascending run of spans — each segment's blocks, a gap
span wherever no block of the term covers an id range, the tail's
record last.  The warm-state suites build 25–40-document engines, so no term
there reaches a second block of a segment.  Every history here holds:

* a term with more than ``POSTINGS_BLOCK_SIZE`` postings in one segment;
* a segment the term is absent from (``zeta`` skips the second);
* candidates past a segment's last block (``early`` ends early in each);
* a non-empty tail above the segments.

Hits must equal the exhaustive path's bit for bit, and on a fixed
corpus the driver's decisions — postings walked, postings skipped,
blocks skipped — must repeat the recorded counts exactly.
"""

import random

import pytest
from hypothesis import given, settings, strategies as st

from repro.engine import fields as F
from repro.engine.documents import Document
from repro.engine.evaluation import PRUNED, TERM_AT_A_TIME
from repro.engine.pruning import PrunedContext
from repro.engine.query import ListQuery, TermQuery
from repro.engine.ranking import RANKING_ALGORITHMS
from repro.engine.search import SearchEngine
from repro.storage.format import POSTINGS_BLOCK_SIZE
from repro.storage.merge import TieredMergePolicy

from tests.engine.test_pruning_equivalence import assert_pruned_equivalent

SEGMENT = 200
TAIL = 60
WORDS = ("gamma", "delta", "epsilon", "early", "zeta", "rare")


def body(rng: random.Random, index: int) -> str:
    segment, position = divmod(index, SEGMENT)
    words = rng.choices(("gamma", "delta", "epsilon"), (6, 3, 1), k=rng.randint(4, 20))
    if position < 60 and rng.random() < 0.5:
        words += ["early"] * rng.randint(1, 3)
    if segment != 1 and rng.random() < 0.3:
        words += ["zeta"] * rng.randint(1, 2)
    if rng.random() < 0.05:
        words.append("rare")
    rng.shuffle(words)
    return " ".join(words)


def documents(start: int, stop: int) -> list[Document]:
    rng = random.Random(7)
    bodies = [body(rng, index) for index in range(stop)]
    return [
        Document(f"http://blocks/{index}", {F.BODY_OF_TEXT: bodies[index]})
        for index in range(start, stop)
    ]


def open_engine(directory) -> SearchEngine:
    return SearchEngine(ranking=RANKING_ALGORITHMS["Okapi-1"](), storage_dir=directory)


def build_history(name: str, directory) -> SearchEngine:
    """Three 200-document segments and a 60-document tail; ``merged``
    folds the three into one before the tail."""
    engine = open_engine(directory)
    for start in range(0, 3 * SEGMENT, SEGMENT):
        engine.add_all(documents(start, start + SEGMENT))
        engine.flush()
    if name == "merged":
        engine.segment_store.merge_policy = TieredMergePolicy(merge_factor=3)
        engine.segment_store.merge_all()
    engine.add_all(documents(3 * SEGMENT, 3 * SEGMENT + TAIL))
    return engine


HISTORIES = ("v2", "merged")


@pytest.fixture(scope="module")
def stores(tmp_path_factory):
    engines = {
        name: build_history(name, tmp_path_factory.mktemp(name) / "store")
        for name in HISTORIES
    }
    yield engines
    for engine in engines.values():
        engine.close()


def t(text, weight=1.0, modifiers=()):
    return TermQuery(F.BODY_OF_TEXT, text, modifiers=frozenset(modifiers), weight=weight)


def test_the_histories_hold_every_case(stores):
    v2 = stores["v2"]
    readers = v2.segment_store.readers
    assert len(readers) == 3
    handles = [reader.term_handle(F.BODY_OF_TEXT, "gamma") for reader in readers]
    assert all(handle.document_count() > POSTINGS_BLOCK_SIZE for handle in handles)
    assert readers[1].term_handle(F.BODY_OF_TEXT, "zeta") is None
    for reader in readers:
        early = reader.term_handle(F.BODY_OF_TEXT, "early")
        assert early.blocks.last_ids[-1] < reader.doc_ids()[-1]
    gamma = v2.index.pruned_postings(F.BODY_OF_TEXT, "gamma")
    assert gamma._tail.df > 0
    # Gap spans cover the ids no block of zeta does: segment 1 whole.
    spans = list(v2.index.pruned_postings(F.BODY_OF_TEXT, "zeta").spans())
    assert any(
        bound == (0, 0) and last_id >= 2 * SEGMENT - 1 for last_id, bound, _ in spans
    )
    merged = stores["merged"].segment_store.readers
    assert len(merged) == 1
    assert len(merged[0].term_handle(F.BODY_OF_TEXT, "gamma").blocks) > 3


_queries = st.lists(
    st.tuples(
        st.sampled_from(WORDS + ("e",)), st.sampled_from([1.0, 0.8, 0.5, 0.2, 0.05])
    ),
    min_size=1,
    max_size=5,
).map(
    lambda pairs: ListQuery(
        tuple(
            # ``e*`` expands to early + epsilon: a materialized term.
            t(text, weight, ("right-truncation",) if text == "e" else ())
            for text, weight in pairs
        )
    )
)


@settings(max_examples=60, deadline=None)
@given(
    history=st.sampled_from(HISTORIES),
    algorithm_id=st.sampled_from(sorted(RANKING_ALGORITHMS)),
    query=_queries,
    top_k=st.sampled_from([1, 3, 10]),
    floor_quantile=st.sampled_from([None, 0.1, 0.5]),
)
def test_pruned_equals_exhaustive_over_multi_block_segments(
    stores, history, algorithm_id, query, top_k, floor_quantile
):
    engine = stores[history]
    engine.ranking = RANKING_ALGORITHMS[algorithm_id]()
    min_score = 0.0
    if floor_quantile is not None:
        engine.evaluation = TERM_AT_A_TIME
        full = engine.search(ranking_query=query)
        if full:
            min_score = full[int((len(full) - 1) * floor_quantile)].score
    assert_pruned_equivalent(engine, ranking_query=query, top_k=top_k, min_score=min_score)
    engine.evaluation = PRUNED


PINNED_QUERIES = (
    ListQuery((t("gamma", 0.8), t("early", 0.05))),
    ListQuery((t("gamma", 0.2), t("early", 0.05), t("delta", 0.5))),
    ListQuery((t("delta", 0.8), t("epsilon", 0.05), t("early", 0.05))),
    ListQuery((t("gamma"), t("delta", 0.5), t("zeta", 0.2))),
    ListQuery((t("zeta"), t("epsilon", 0.5), t("rare", 0.8), t("gamma", 0.05))),
    ListQuery((t("rare"), t("early", 0.5), t("zeta", 0.5))),
    ListQuery((t("delta"), t("e", 0.3, ("right-truncation",)), t("gamma", 0.1))),
    t("gamma"),
)

#: ``(postings walked, postings skipped, blocks skipped)`` per history
#: and query at top-k 1 and 10, recorded from the driver as it probed
#: candidate by candidate; the span walk must make the same decisions.
PINNED_DECISIONS = {
    "v2": [
        (887, 0, 423), (893, 0, 417), (834, 653, 376), (885, 639, 360),
        (726, 476, 200), (819, 435, 224), (274, 1144, 0), (303, 1115, 2),
        (174, 1115, 0), (203, 1086, 0), (63, 218, 18), (84, 197, 13),
        (1825, 653, 0), (1835, 645, 0), (655, 0, 0), (655, 0, 0),
    ],
    "merged": [
        (1168, 0, 142), (1170, 0, 140), (1081, 653, 129), (1109, 639, 136),
        (858, 460, 68), (961, 435, 82), (274, 1144, 0), (303, 1115, 2),
        (174, 1115, 0), (203, 1086, 0), (76, 205, 5), (95, 186, 2),
        (1825, 653, 0), (1835, 645, 0), (655, 0, 0), (655, 0, 0),
    ],
}


@pytest.mark.parametrize("history", HISTORIES)
def test_decisions_repeat_the_recorded_counts(stores, history):
    engine = stores[history]
    engine.ranking = RANKING_ALGORITHMS["Okapi-1"]()
    decisions = []
    for query in PINNED_QUERIES:
        for top_k in (1, 10):
            context = PrunedContext(engine, query, top_k=top_k, min_score=0.0)
            context.hits()
            decisions.append(
                (context.postings_walked, context.postings_skipped, context.blocks_skipped)
            )
    assert decisions == PINNED_DECISIONS[history]
