"""Indexed selection is a bit-exact twin of the dense scan.

Every selector runs over randomized summary sets — sparse over a
:class:`SummaryIndex`, and again handed the plain dict (which it indexes
on entry) — and must produce the *same floats in the same order*, ties
included, as the original per-summary dict scan kept in
``tests/oracles/dense_selection.py``.  The same holds after arbitrary
add / re-harvest / remove delta streams.
"""

from hypothesis import given, settings, strategies as st

from repro.metasearch.selection import (
    BGloss,
    BySize,
    Cori,
    CostAware,
    RandomSelector,
    SelectAll,
    VGlossMax,
    VGlossSum,
)
from repro.metasearch.summary_index import SummaryIndex
from repro.starts.metadata import SContentSummary, SummaryEntryLine, SummarySection

from tests.oracles.dense_selection import oracle_rank, oracle_select

WORD_POOL = ["alpha", "beta", "Gamma", "delta", "epsilon", "Zeta"]
QUERY_POOL = WORD_POOL + ["absent", "Missing"]


def _selectors():
    return [
        BGloss(),
        VGlossSum(),
        VGlossMax(),
        Cori(),
        SelectAll(),
        BySize(),
        RandomSelector(seed=3),
        CostAware(Cori(), {"S0": 0.4, "S2": 1.5}, tradeoff=0.8),
    ]


@st.composite
def summary_sets(draw):
    n_sources = draw(st.integers(0, 8))
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


@settings(deadline=None)
@given(summaries=summary_sets(), terms=queries(), k=st.integers(0, 10))
def test_indexed_equals_dense(summaries, terms, k):
    index = SummaryIndex.from_summaries(summaries)
    for selector in _selectors():
        # Same scores, same order, same floats — not approx.
        ranked = oracle_rank(selector, terms, summaries)
        assert selector.rank(terms, index) == ranked
        assert selector.rank(terms, summaries) == ranked
        selected = oracle_select(selector, terms, summaries, k)
        assert selector.select(terms, index, k) == selected
        assert selector.select(terms, summaries, k) == selected
        assert selector.top_candidates(terms, summaries, k) == ranked[:k]


@settings(max_examples=60, deadline=None)
@given(
    initial=summary_sets(),
    replacement=summary_sets(),
    terms=queries(),
    data=st.data(),
)
def test_equivalence_survives_delta_streams(initial, replacement, terms, data):
    """add → re-harvest → remove deltas leave the index equal to both a
    from-scratch rebuild and the dense oracle over the same dict."""
    index = SummaryIndex.from_summaries(initial)
    live = dict(initial)
    # Replace a few sources (re-harvest) with summaries from the second
    # set, then forget a few.
    for source_id, summary in replacement.items():
        if data.draw(st.booleans(), label=f"replace {source_id}"):
            index.add(source_id, summary)
            live[source_id] = summary
    for source_id in list(live):
        if data.draw(st.booleans(), label=f"forget {source_id}"):
            index.remove(source_id)
            del live[source_id]

    assert index.summaries() == live
    rebuilt = SummaryIndex.from_summaries(live)
    for selector in _selectors():
        ranked = selector.rank(terms, index)
        assert ranked == selector.rank(terms, rebuilt)
        assert ranked == oracle_rank(selector, terms, live)
        assert selector.select(terms, index, 3) == oracle_select(
            selector, terms, live, 3
        )


class TestTieDeterminism:
    """Satellite: tied goodness must order by source id on both paths."""

    def _tied_summaries(self):
        entries = (
            SummaryEntryLine("alpha", 12, 6),
            SummaryEntryLine("beta", 4, 2),
        )
        clone = SContentSummary(
            num_docs=50,
            sections=(SummarySection("body-of-text", "en", entries),),
        )
        return {source_id: clone for source_id in ("S3", "S0", "S2", "S1")}

    def test_cori_rank_pins_tied_order(self):
        summaries = self._tied_summaries()
        index = SummaryIndex.from_summaries(summaries)
        indexed = Cori().rank(["alpha", "beta"], index)
        dense = oracle_rank(Cori(), ["alpha", "beta"], summaries)
        assert indexed == dense
        # All four sources are identical, so every goodness ties and the
        # order must fall back to lexicographic source id.
        assert [source_id for source_id, _ in indexed] == ["S0", "S1", "S2", "S3"]
        assert len({goodness for _, goodness in indexed}) == 1

    def test_cost_aware_rank_pins_tied_order(self):
        summaries = self._tied_summaries()
        index = SummaryIndex.from_summaries(summaries)
        costs = {"S1": 0.5, "S2": 0.5}  # S1/S2 tie below the S0/S3 tie
        indexed = CostAware(Cori(), costs).rank(["alpha"], index)
        dense = oracle_rank(CostAware(Cori(), costs), ["alpha"], summaries)
        assert indexed == dense
        assert [source_id for source_id, _ in indexed] == ["S0", "S3", "S1", "S2"]

    def test_select_honours_tied_order(self):
        summaries = self._tied_summaries()
        index = SummaryIndex.from_summaries(summaries)
        assert Cori().select(["alpha"], index, 2) == ["S0", "S1"]
        assert CostAware(Cori(), {}).select(["alpha"], index, 3) == [
            "S0",
            "S1",
            "S2",
        ]


class TestEdgeCases:
    """Satellite: degenerate inputs behave identically on both paths."""

    def _summaries(self):
        return {
            "Empty": SContentSummary(
                num_docs=0,
                sections=(SummarySection("body-of-text", "en", ()),),
            ),
            "Full": SContentSummary(
                num_docs=30,
                sections=(
                    SummarySection(
                        "body-of-text",
                        "en",
                        (SummaryEntryLine("alpha", 10, 5),),
                    ),
                ),
            ),
        }

    def test_empty_term_list(self):
        summaries = self._summaries()
        index = SummaryIndex.from_summaries(summaries)
        for selector in _selectors():
            assert selector.rank([], index) == oracle_rank(selector, [], summaries)

    def test_terms_absent_from_every_source(self):
        summaries = self._summaries()
        index = SummaryIndex.from_summaries(summaries)
        terms = ["nowhere", "tobefound"]
        for selector in _selectors():
            assert selector.rank(terms, index) == oracle_rank(
                selector, terms, summaries
            )
        # BGloss: no source can match a conjunctive query with an
        # unknown term; everything scores zero.
        assert all(g == 0.0 for _, g in BGloss().rank(terms, index))

    def test_source_with_zero_docs(self):
        summaries = self._summaries()
        index = SummaryIndex.from_summaries(summaries)
        ranked = dict(BGloss().rank(["alpha"], index))
        assert ranked["Empty"] == 0.0
        assert ranked["Full"] > 0.0
        cori = dict(Cori().rank(["alpha"], index))
        assert cori == dict(oracle_rank(Cori(), ["alpha"], summaries))


class TestDiscoveryMaintenance:
    """The discovery service keeps its index coherent with summaries()."""

    def test_harvest_populates_index(self, small_federation):
        from repro.metasearch.discovery import DiscoveryService
        from repro.transport import StartsClient

        internet, resource_url, _ = small_federation
        discovery = DiscoveryService(StartsClient(internet))
        discovery.refresh_resource(resource_url)
        index = discovery.summary_index()
        assert set(index.source_ids()) == set(discovery.summaries())
        assert index.summaries() == discovery.summaries()

    def test_forget_mid_stream_drops_source_and_decrements_cf(
        self, small_federation
    ):
        from repro.metasearch.discovery import DiscoveryService
        from repro.transport import StartsClient

        internet, resource_url, _ = small_federation
        discovery = DiscoveryService(StartsClient(internet))
        discovery.refresh_resource(resource_url)
        index = discovery.summary_index()
        # Pick a word the DB source contributes, then forget the source
        # mid-stream: the index sheds it and CORI's cf decrements.
        word = next(
            entry.word.lower()
            for entry in discovery.summaries()["Fed-DB"].sections[0].entries
        )
        cf_before = index.term_columns(word).collection_frequency
        assert cf_before >= 1
        discovery.forget("Fed-DB")
        assert "Fed-DB" not in index
        assert index.term_columns(word).collection_frequency == cf_before - 1
        assert index.summaries() == discovery.summaries()
        # Selection over the post-forget index matches the dense oracle
        # over the post-forget summaries.
        assert Cori().rank([word], index) == oracle_rank(
            Cori(), [word], discovery.summaries()
        )
