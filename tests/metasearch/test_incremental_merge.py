"""The two-step merge is a bit-exact twin of the merger it replaced.

Every strategy now consists of a per-source step (``prepare``, cached by
:class:`StreamingMerge` on ``feed``) and a cross-source step
(``combine``, run per ``merged()``), and batch ``merge`` is those two
steps over ``sorted(results)``.  The per-document ``score`` strategies
and the accumulator that re-ran the whole batch merge per arrival live
on in ``tests/oracles/streaming_merge.py``; over generated per-source
results — shared and disjoint linkages, ties, ``tf = 0`` lines, missing
``TermStats``, ``DocCount = 0``, sources with and without summaries /
metadata / samples, infinite and degenerate ``ScoreRange`` s — fed in an
arbitrary arrival order, the new merger must produce the *same floats in
the same order* after every single ``feed``.

One corner of the old accumulator is deliberately not reproduced: for
stable strategies it deduplicated in *arrival* order, so when two
sources returned the same linkage at exactly the same score the copy it
kept (``source_id``) depended on who answered first, while the batch
merge always kept the alphabetically first source.  The new accumulator
equals batch by construction, so every prefix is compared on ``(linkage,
score, source_id)`` with the oracle's *batch* merge of that prefix, and
on ``(linkage, score)`` with the oracle's accumulator
(:func:`test_equal_score_duplicate_keeps_the_batch_copy` pins the
difference).
"""

import math

import pytest
from hypothesis import given, settings, strategies as st

from repro.metasearch.merging import (
    MERGE_STRATEGIES,
    MergeContext,
    RawScoreMerge,
    StreamingMerge,
)
from repro.source.sample import SampleResults
from repro.starts.ast import STerm
from repro.starts.attributes import FieldRef
from repro.starts.lstring import LString
from repro.starts.metadata import (
    SContentSummary,
    SMetaAttributes,
    SummaryEntryLine,
    SummarySection,
)
from repro.starts.results import SQRDocument, SQResults, TermStats

from tests.oracles.streaming_merge import (
    ORACLE_STRATEGIES,
    StreamingMerge as OracleStreamingMerge,
)

WORD_POOL = ["alpha", "beta", "Gamma", "delta"]
TERMS = {word: STerm(LString(word), FieldRef("body-of-text")) for word in WORD_POOL}
SHARED_LINKAGES = [f"http://shared/{number}" for number in range(8)]
#: A small pool, so equal scores across and within sources are common.
SCORES = st.sampled_from([0.0, 0.25, 0.5, 1.0, 3.0, 120.0, 999.5]) | st.floats(
    0.0, 1000.0, allow_nan=False
)
SCORE_RANGES = [
    (0.0, 1.0),
    (0.0, 1000.0),
    (0.0, math.inf),
    (-math.inf, math.inf),
    (2.0, 2.0),
    (1.0, 0.5),
]


@st.composite
def documents(draw, source_id, linkage):
    words = draw(st.lists(st.sampled_from(WORD_POOL), max_size=3))  # may repeat
    return SQRDocument(
        linkage=linkage,
        raw_score=draw(SCORES),
        sources=(source_id,),
        term_stats=tuple(
            TermStats(
                TERMS[word], draw(st.integers(0, 6)), 0.5, draw(st.integers(0, 40))
            )
            for word in words
        ),
        doc_count=draw(st.sampled_from([0, 1, 7, 250])),
    )


@st.composite
def summary(draw):
    words = draw(st.lists(st.sampled_from(WORD_POOL), max_size=4, unique=True))
    entries = tuple(
        SummaryEntryLine(word, draw(st.integers(0, 60)), draw(st.integers(0, 40)))
        for word in words
    )
    return SContentSummary(
        num_docs=draw(st.sampled_from([0, 1, 40, 300])),
        case_sensitive=draw(st.booleans()),
        sections=(SummarySection("body-of-text", "en", entries),),
    )


@st.composite
def worlds(draw):
    """``(results, candidates' context, arrival order)``.

    The context may know sources that never answer (a failed or pending
    candidate): merging must narrow to the answering set.
    """
    source_ids = [f"S{number}" for number in range(draw(st.integers(1, 5)))]
    shared = draw(st.booleans())
    results, metadata, summaries, samples = {}, {}, {}, {}
    for source_id in source_ids + ["S-silent"]:
        if draw(st.booleans()):
            metadata[source_id] = SMetaAttributes(
                source_id=source_id, score_range=draw(st.sampled_from(SCORE_RANGES))
            )
        if draw(st.booleans()):
            summaries[source_id] = draw(summary())
        if draw(st.booleans()):
            samples[source_id] = SampleResults(
                {("q",): draw(st.lists(st.sampled_from([0.0, 0.5, 2.0, 40.0]), max_size=3))}
            )
    for source_id in source_ids:
        pool = (
            SHARED_LINKAGES
            if shared
            else [f"http://{source_id}/{number}" for number in range(6)]
        )
        linkages = draw(st.lists(st.sampled_from(pool), max_size=5, unique=True))
        results[source_id] = SQResults(
            sources=(source_id,),
            documents=tuple(draw(documents(source_id, linkage)) for linkage in linkages),
        )
    context = MergeContext(
        metadata,
        summaries,
        samples,
        tuple(draw(st.lists(st.sampled_from(WORD_POOL + ["absent"]), max_size=3))),
    )
    return results, context, draw(st.permutations(source_ids))


def triples(rank):
    """``(linkage, score bits, source_id)`` — ``hex`` tells -0.0 from 0.0."""
    return [(merged.linkage, merged.score.hex(), merged.source_id) for merged in rank]


def pairs(rank):
    return [(merged.linkage, merged.score.hex()) for merged in rank]


@pytest.mark.parametrize("strategy_name", sorted(MERGE_STRATEGIES))
@settings(deadline=None)
@given(world=worlds())
def test_every_prefix_equals_the_oracle(strategy_name, world):
    results, context, order = world
    strategy = MERGE_STRATEGIES[strategy_name]()
    oracle = ORACLE_STRATEGIES[strategy_name]()
    assert strategy.stable_scores == oracle.stable_scores
    stream = StreamingMerge(strategy, context)
    oracle_stream = OracleStreamingMerge(oracle, context)

    fed = {}
    for position, source_id in enumerate(order):
        fed[source_id] = results[source_id]
        stream.feed(source_id, results[source_id])
        oracle_stream.feed(source_id, results[source_id])

        rank = stream.merged()
        assert stream.merged() is rank  # nothing recomputed between feeds
        assert triples(rank) == triples(
            oracle.merge(dict(fed), context.restricted_to(fed))
        )
        assert pairs(rank) == pairs(oracle_stream.merged())
        if not strategy.stable_scores:
            assert triples(rank) == triples(oracle_stream.merged())
        assert all(
            merged.document in results[merged.source_id].documents for merged in rank
        )

        pending = order[position + 1 :]
        for k in (1, 3):
            assert triples(stream.current_top_k(k)) == triples(rank[:k])
            assert stream.is_stable_top_k(k, pending) == oracle_stream.is_stable_top_k(
                k, pending
            )
        assert triples(stream.current_top_k()) == triples(rank)
        assert triples(stream.current_top_k(0)) == triples(rank)

    narrowed = context.restricted_to(results)
    assert triples(strategy.merge(results, narrowed)) == triples(
        oracle.merge(results, narrowed)
    )
    # ... and under the candidates' whole context, as the experiments call it.
    assert triples(strategy.merge(results, context)) == triples(
        oracle.merge(results, context)
    )
    for source_id in context.metadata:
        assert strategy.score_upper_bound(source_id, context) == (
            oracle.score_upper_bound(source_id, context)
        )


def _counting(strategy_class):
    """An instance that records which step ran for whom."""
    prepared, combined = [], []

    class Counting(strategy_class):
        def prepare(self, source_id, results, context):
            prepared.append(source_id)
            return super().prepare(source_id, results, context)

        def combine(self, parts, context):
            combined.append(tuple(parts))
            return super().combine(parts, context)

    return Counting(), prepared, combined


@pytest.mark.parametrize("strategy_name", sorted(MERGE_STRATEGIES))
@settings(max_examples=25, deadline=None)
@given(world=worlds(), reads=st.lists(st.integers(0, 3), min_size=5, max_size=5))
def test_per_source_step_runs_once_per_fed_source(strategy_name, world, reads):
    results, context, order = world
    strategy, prepared, combined = _counting(MERGE_STRATEGIES[strategy_name])
    stream = StreamingMerge(strategy, context)
    for position, source_id in enumerate(order):
        stream.feed(source_id, results[source_id])
        for _ in range(reads[position]):
            stream.merged()
            stream.current_top_k(2)
            stream.is_stable_top_k(2, order[position + 1 :])
    stream.merged()
    # Each source scored on arrival and never again; the cross-source
    # step ran at most once per arrival, over the sources in id order.
    assert prepared == list(order)
    assert len(combined) <= len(order)
    assert combined[-1] == tuple(sorted(order))
    with pytest.raises(ValueError):
        stream.feed(order[0], results[order[0]])

    # Batch is the same two steps: one prepare per source, one combine.
    del prepared[:], combined[:]
    strategy.merge(results, context)
    assert prepared == sorted(results)
    assert combined == [tuple(sorted(results))]


def test_equal_score_duplicate_keeps_the_batch_copy():
    """Same linkage, same score, two sources: batch keeps the copy of the
    alphabetically first source, and so does the stream whatever the
    arrival order — where the old accumulator kept whoever came first."""
    results = {
        source_id: SQResults(
            sources=(source_id,),
            documents=(SQRDocument("http://shared/1", 0.5, (source_id,)),),
        )
        for source_id in ("A", "B")
    }
    context = MergeContext()
    stream = StreamingMerge(RawScoreMerge(), context)
    oracle_stream = OracleStreamingMerge(ORACLE_STRATEGIES["raw-score"](), context)
    for source_id in ("B", "A"):
        stream.feed(source_id, results[source_id])
        oracle_stream.feed(source_id, results[source_id])
    batch = triples(RawScoreMerge().merge(results, context))
    assert batch == triples(ORACLE_STRATEGIES["raw-score"]().merge(results, context))
    assert triples(stream.merged()) == batch == [("http://shared/1", (0.5).hex(), "A")]
    assert [merged.source_id for merged in oracle_stream.merged()] == ["B"]
