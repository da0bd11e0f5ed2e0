"""Property suite: hierarchical selection is a bit-exact twin of flat.

For every distributable selector, over randomized summary populations,
partition widths (leaf fan-outs), executors and queries — with and
without mid-stream re-harvest and ``forget`` deltas — the hierarchy's
top-k and full ranking must equal the flat index's *floats in the same
order*, ties included.  The flat single-broker index stays the oracle
of the subsystem — and, by the same property, its standby: whatever
happens to the leaves, a brokered search answers what a flat one does.
"""

import pytest
from hypothesis import given, settings, strategies as st

from repro import BrokeredMetasearcher, Metasearcher, SQuery, parse_expression
from repro import quick_federation
from repro.broker import LeafBroker, RootBroker, build_hierarchy
from repro.cache import CachePolicy
from repro.federation import AsyncExecutor, SerialExecutor
from repro.metasearch.selection import (
    BGloss,
    BySize,
    Cori,
    SelectAll,
    VGlossMax,
    VGlossSum,
)
from repro.metasearch.summary_index import SummaryIndex
from repro.observability import MetricsRegistry, get_registry, set_registry
from repro.starts.metadata import SContentSummary, SummaryEntryLine, SummarySection

from tests.broker.util import RAISES, FaultyLeaf

WORD_POOL = ["alpha", "beta", "Gamma", "delta", "epsilon", "Zeta"]
QUERY_POOL = WORD_POOL + ["absent", "Missing"]


def _selectors():
    return [BGloss(), VGlossSum(), VGlossMax(), Cori(), SelectAll(), BySize()]


@st.composite
def summary_sets(draw):
    n_sources = draw(st.integers(0, 10))
    summaries = {}
    for s in range(n_sources):
        n_words = draw(st.integers(0, len(WORD_POOL)))
        words = draw(
            st.lists(
                st.sampled_from(WORD_POOL),
                min_size=n_words,
                max_size=n_words,
                unique=True,
            )
        )
        entries = tuple(
            SummaryEntryLine(
                word,
                draw(st.integers(-1, 30)),
                draw(st.integers(-1, 25)),
            )
            for word in words
        )
        summaries[f"S{s}"] = SContentSummary(
            num_docs=draw(st.sampled_from([0, 1, 5, 40, 300])),
            case_sensitive=draw(st.booleans()),
            sections=(SummarySection("body-of-text", "en", entries),),
        )
    return summaries


@st.composite
def queries(draw):
    n_terms = draw(st.integers(0, 4))
    return draw(
        st.lists(
            st.sampled_from(QUERY_POOL), min_size=n_terms, max_size=n_terms
        )
    )


EXECUTORS = {
    "serial": SerialExecutor,
    "async": lambda: AsyncExecutor(max_concurrency=4),
}


def _build(n_leaves, summaries, executor=None):
    root = build_hierarchy(n_leaves, executor=executor)
    for source_id in sorted(summaries):
        root.apply_delta(source_id, summaries[source_id])
    return root


def _assert_equals_flat(root, index, terms, k):
    """Top-k ids, and the whole ranking through the same path (k = N)."""
    for selector in _selectors():
        assert root.select(selector, terms, k) == selector.select(terms, index, k)
        ranking = root.top_candidates(selector, terms, len(index))
        assert ranking == selector.rank(terms, index)


@settings(max_examples=80, deadline=None)
@given(
    summaries=summary_sets(),
    terms=queries(),
    k=st.integers(0, 12),
    n_leaves=st.integers(1, 8),
    executor=st.sampled_from(sorted(EXECUTORS)),
)
def test_hierarchical_equals_flat(summaries, terms, k, n_leaves, executor):
    index = SummaryIndex.from_summaries(summaries)
    root = _build(n_leaves, summaries, EXECUTORS[executor]())
    _assert_equals_flat(root, index, terms, k)


@settings(max_examples=50, deadline=None)
@given(
    initial=summary_sets(),
    replacement=summary_sets(),
    terms=queries(),
    n_leaves=st.integers(1, 4),
    data=st.data(),
)
def test_equivalence_survives_delta_streams(
    initial, replacement, terms, n_leaves, data
):
    """Re-harvest and forget deltas, applied mid-stream through the
    ring, leave the hierarchy equal to the flat index over the same
    surviving population."""
    index = SummaryIndex.from_summaries(initial)
    root = _build(n_leaves, initial)
    live = dict(initial)
    for source_id, summary in replacement.items():
        if data.draw(st.booleans(), label=f"replace {source_id}"):
            index.add(source_id, summary)
            root.apply_delta(source_id, summary)
            live[source_id] = summary
    for source_id in list(live):
        if data.draw(st.booleans(), label=f"forget {source_id}"):
            index.remove(source_id)
            root.apply_delta(source_id, None)
            del live[source_id]

    sharded = {
        source_id
        for leaf in root.handles()
        for source_id in leaf.index.source_ids()
    }
    assert sharded == set(live)
    _assert_equals_flat(root, index, terms, 3)


@settings(max_examples=40, deadline=None)
@given(
    summaries=summary_sets(),
    terms=queries(),
    k=st.integers(0, 8),
    split=st.integers(1, 3),
)
def test_nested_hierarchy_equals_flat(summaries, terms, k, split):
    """Two sub-roots under a top root: exactness survives nesting."""
    index = SummaryIndex.from_summaries(summaries)
    sub_a = build_hierarchy(split, leaf_prefix="a", broker_id="sub-a")
    sub_b = build_hierarchy(4 - split, leaf_prefix="b", broker_id="sub-b")
    top = RootBroker([sub_a, sub_b])
    for source_id in sorted(summaries):
        top.apply_delta(source_id, summaries[source_id])
    for selector in _selectors():
        assert top.select(selector, terms, k) == selector.select(terms, index, k)


# -- the flat index as the standby ------------------------------------------

N_FAULTY_LEAVES = 3
FAULTS = ("none", *RAISES)


@pytest.fixture(scope="module")
def flat_and_brokered():
    """A flat searcher and one selecting through three leaves that can
    be made to fail, over identically seeded federations; caches off, so
    every search selects."""
    internet_a, url_a = quick_federation(seed=11, docs_per_source=12)
    internet_b, url_b = quick_federation(seed=11, docs_per_source=12)
    leaves = [
        FaultyLeaf(LeafBroker(f"leaf-{index}")) for index in range(N_FAULTY_LEAVES)
    ]
    flat = Metasearcher(internet_a, [url_a], cache_policy=CachePolicy.disabled())
    brokered = BrokeredMetasearcher(
        internet_b,
        [url_b],
        broker=RootBroker(leaves),
        cache_policy=CachePolicy.disabled(),
    )
    flat.refresh()
    brokered.refresh()
    return flat, brokered, leaves


def _ranks(result):
    return [
        (doc.score.hex(), doc.source_id, doc.linkage) for doc in result.documents
    ]


@settings(max_examples=40, deadline=None)
@given(
    faults=st.lists(
        st.sampled_from(FAULTS), min_size=N_FAULTY_LEAVES, max_size=N_FAULTY_LEAVES
    ),
    text=st.sampled_from(["databases", "retrieval systems", "medicine", "absent"]),
    k_sources=st.integers(1, 4),
)
def test_search_survives_leaf_faults_by_fallback(
    flat_and_brokered, faults, text, k_sources
):
    """Any subset of leaves dead, hanging or answering garbage: the
    search still returns the flat answer, bit for bit — counted once,
    and said on the ``select`` span."""
    flat, brokered, leaves = flat_and_brokered
    for leaf, fault in zip(leaves, faults):
        leaf.fault = fault
    query = SQuery(
        ranking_expression=parse_expression(
            "list(" + " ".join(f'(body-of-text "{word}")' for word in text.split()) + ")"
        ),
        max_number_documents=8,
    )
    expected = flat.search(query, k_sources=k_sources)

    previous = get_registry()
    registry = set_registry(MetricsRegistry())
    try:
        result = brokered.search(query, k_sources=k_sources)
    finally:
        set_registry(previous)

    assert result.selected_sources == expected.selected_sources
    assert _ranks(result) == _ranks(expected)
    select = result.trace.find("select")
    assert select.attributes["brokered"] is True
    fallbacks = registry.family("broker_fallbacks_total")
    if set(faults) == {"none"}:
        assert "broker_fallback" not in select.attributes
        assert fallbacks is None
    else:
        # Serial fan-out: the first faulty leaf is the one that raised.
        first = next(fault for fault in faults if fault != "none")
        assert select.attributes["broker_fallback"].startswith(RAISES[first].__name__)
        ((_, counter),) = fallbacks.children()
        assert counter.value == 1
