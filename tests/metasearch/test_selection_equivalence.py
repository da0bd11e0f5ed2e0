"""Indexed selection is a bit-exact twin of the dense scan.

Every selector runs over randomized summary sets — sparse over a
:class:`SummaryIndex`, and again handed the plain dict (which it indexes
on entry) — and must produce the *same floats in the same order*, ties
included, as the original per-summary dict scan kept in
``tests/oracles/dense_selection.py``.  The same holds for ``select``'s
top-k cut over populations of cloned summaries, where exact ties are the
norm, and for the index discovery publishes after a harvest or a
``forget``.
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
from repro.metasearch.summary_index import SummaryIndex, TermColumns
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
def content_summaries(draw):
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
    return SContentSummary(
        num_docs=draw(st.sampled_from([0, 1, 5, 40, 300])),
        case_sensitive=draw(st.booleans()),
        sections=(SummarySection("body-of-text", "en", entries),),
    )


@st.composite
def summary_sets(draw):
    n_sources = draw(st.integers(0, 8))
    return {f"S{s}": draw(content_summaries()) for s in range(n_sources)}


@st.composite
def cloned_populations(draw):
    """20–60 sources cloned from at most four templates: exact ties are
    the norm, and most queries touch more sources than ``k``."""
    templates = draw(st.lists(content_summaries(), min_size=1, max_size=4))
    n_sources = draw(st.integers(20, 60))
    return {
        f"S{s:02d}": templates[draw(st.integers(0, len(templates) - 1))]
        for s in range(n_sources)
    }


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


#: The query-dependent formulas the cut cases check (BySize and
#: SelectAll take the same cut; RandomSelector and CostAware pool every
#: source).
CUT_SELECTORS = (BGloss(), VGlossSum(), VGlossMax(), Cori())


@settings(deadline=None)
@given(
    summaries=cloned_populations(),
    # At least one term: an empty query touches no source, and the cut
    # only engages when more than k sources are touched.
    terms=st.lists(st.sampled_from(QUERY_POOL), min_size=1, max_size=4),
    k=st.integers(1, 8),
)
def test_top_k_cut_over_cloned_populations(summaries, terms, k):
    index = SummaryIndex.from_summaries(summaries)
    for selector in CUT_SELECTORS:
        assert selector.select(terms, index, k) == oracle_select(
            selector, terms, summaries, k
        )


def _entry_summary(num_docs, words):
    """``words``: {word: (postings, df)}."""
    entries = tuple(
        SummaryEntryLine(word, postings, df) for word, (postings, df) in words.items()
    )
    return SContentSummary(
        num_docs=num_docs,
        sections=(SummarySection("body-of-text", "en", entries),),
    )


class TestTopKCut:
    """``select`` keeps only touched sources at or above the k-th best
    touched goodness; every k must still pick the oracle's top k."""

    def _assert_every_k(self, summaries, terms, ks):
        index = SummaryIndex.from_summaries(summaries)
        for selector in CUT_SELECTORS:
            for k in ks:
                assert selector.select(terms, index, k) == oracle_select(
                    selector, terms, summaries, k
                ), (selector.name, k)

    def test_ties_straddle_the_cut(self):
        strong = _entry_summary(50, {"alpha": (60, 20), "beta": (30, 10)})
        tied = _entry_summary(50, {"alpha": (16, 8), "beta": (4, 2)})
        weak = _entry_summary(40, {"alpha": (2, 1), "beta": (2, 2)})
        layout = "TSTWTSWTT"  # tied ids on both sides of every other kind
        kinds = {"S": strong, "T": tied, "W": weak}
        summaries = {f"S{i}": kinds[kind] for i, kind in enumerate(layout)}
        terms = ["alpha", "beta"]
        for selector in CUT_SELECTORS:
            # The five clones share one goodness and rank as one run, so
            # a k inside the run keeps some tied ids and drops others.
            ranked = oracle_rank(selector, terms, summaries)
            run = [rank for rank, (source_id, _) in enumerate(ranked)
                   if layout[int(source_id[1:])] == "T"]
            assert run == list(range(run[0], run[0] + 5)), selector.name
            assert len({ranked[rank][1] for rank in run}) == 1
        self._assert_every_k(summaries, terms, range(len(summaries) + 2))

    def test_zero_goodness_touched_sources_interleave_with_untouched(self):
        untouched = _entry_summary(30, {"gamma": (9, 3)})
        summaries = {
            "S0": untouched,
            "S1": _entry_summary(30, {"alpha": (5, 0)}),
            "S2": untouched,
            "S3": _entry_summary(30, {"alpha": (4, -1)}),
            "S4": _entry_summary(30, {"alpha": (10, 5)}),
            "S5": untouched,
            "S6": _entry_summary(30, {"alpha": (7, 0)}),
            "S7": untouched,
        }
        index = SummaryIndex.from_summaries(summaries)
        touched, default = VGlossMax()._sparse_scores(["alpha"], index)
        # Four listed sources, three of them entered at 0.0 — the same
        # score every untouched source gets by default.
        scores = {index.source_id(o): g for o, g in touched.items()}
        assert sorted(scores) == ["S1", "S3", "S4", "S6"]
        assert scores["S1"] == scores["S3"] == scores["S6"] == default == 0.0
        assert scores["S4"] > 0.0
        self._assert_every_k(summaries, ["alpha"], range(len(summaries) + 2))

    def test_k_at_or_beyond_the_touched_count_and_zero(self):
        summaries = {
            "S0": _entry_summary(20, {"gamma": (3, 1)}),
            "S1": _entry_summary(20, {"alpha": (8, 4)}),
            "S2": _entry_summary(20, {"alpha": (8, 4)}),
            "S3": _entry_summary(20, {"delta": (3, 1)}),
        }
        index = SummaryIndex.from_summaries(summaries)
        for selector in CUT_SELECTORS:
            assert selector.select(["alpha"], index, 0) == []
        self._assert_every_k(summaries, ["alpha"], (0, 2, 3, 4, 9))


#: Pool words spelled in another case: a term with uppercase in it takes
#: ``term_columns``' merging path over a mix of case rules.
CASED_QUERY_POOL = QUERY_POOL + ["ALPHA", "Delta", "GAMMA", "zeta"]


@st.composite
def shuffled_cloned_populations(draw):
    """Cloned populations whose build order is not id order, so tied
    rows sit in a column in an order the id tie-break does not follow."""
    summaries = draw(cloned_populations())
    ids = draw(st.permutations(sorted(summaries)))
    return {source_id: summaries[source_id] for source_id in ids}


@settings(deadline=None)
@given(
    summaries=shuffled_cloned_populations(),
    terms=st.lists(st.sampled_from(CASED_QUERY_POOL), min_size=0, max_size=5),
    data=st.data(),
)
def test_threshold_stop_over_cloned_populations(summaries, terms, data):
    """vGlOSS-Max's early stop picks the oracle's top k for every k."""
    index = SummaryIndex.from_summaries(summaries)
    selector = VGlossMax()
    assert selector.rank(terms, index) == oracle_rank(selector, terms, summaries)
    k = data.draw(st.integers(0, len(summaries) + 2), label="k")
    assert selector.select(terms, index, k) == oracle_select(
        selector, terms, summaries, k
    )


class TestThresholdStop:
    """``VGlossMax.select`` reads its sorted columns only until no unseen
    source can make the cut, and sums exactly as the dense loop does."""

    def test_goodness_is_summed_in_query_order(self):
        # "X" is first seen at the head of "big"; added in query order
        # its 1.0s come first and survive: 1 + 1 + 1e16 == 1e16 + 2,
        # a tie with "Y" that X wins on id.  Starting from the 1e16
        # would round each 1.0 away and hand the top spot to Y.
        summaries = {
            "X": _entry_summary(9, {"one": (1, 1), "two": (1, 1),
                                    "big": (10**16, 10**16)}),
            "Y": _entry_summary(9, {"other": (10**16 + 2, 10**16 + 2)}),
            "Z": _entry_summary(9, {"one": (5, 5), "two": (5, 5)}),
        }
        terms = ["one", "two", "big", "other"]
        ranked = oracle_rank(VGlossMax(), terms, summaries)
        assert ranked[:2] == [("X", 1e16 + 2), ("Y", 1e16 + 2)]
        index = SummaryIndex.from_summaries(summaries)
        assert VGlossMax().rank(terms, index) == ranked
        for k in range(len(summaries) + 2):
            assert VGlossMax().select(terms, index, k) == oracle_select(
                VGlossMax(), terms, summaries, k
            ), k

    def test_a_tie_at_the_threshold_does_not_stop(self):
        # Built in reverse id order, so the tied "S1" heads the column:
        # its goodness equals the threshold, and unseen "S0" still ties.
        clone = _entry_summary(9, {"alpha": (6, 3)})
        summaries = {"S2": _entry_summary(9, {"alpha": (1, 1)}),
                     "S1": clone, "S0": clone}
        index = SummaryIndex.from_summaries(summaries)
        assert [index.source_id(o) for o in index.term_columns("alpha").ordinals] \
            == ["S1", "S0", "S2"]
        assert VGlossMax().select(["alpha"], index, 1) == ["S0"]

    def test_reads_no_deeper_than_the_cut_needs(self):
        # "rare" lists one source far above anything in "common".  Once
        # "rare" runs out it adds nothing to the threshold, so the
        # second depth of "common" already decides k = 1.
        summaries = {"Top": _entry_summary(900, {"rare": (800, 800)})}
        for rank in range(20):
            summaries[f"C{rank:02d}"] = _entry_summary(
                900, {"common": (40 - rank, 40 - rank)}
            )
        index = SummaryIndex.from_summaries(summaries)
        read: set[int] = set()

        class Recorded(list):
            """An ordinals column that notes every source read from it."""

            def __getitem__(self, slot):
                ordinal = list.__getitem__(self, slot)
                read.add(ordinal)
                return ordinal

        term_columns = index.term_columns

        def recorded(term):
            ordinals, *rest = term_columns(term)
            return TermColumns(Recorded(ordinals), *rest)

        index.term_columns = recorded
        assert VGlossMax().select(["rare", "common"], index, 1) == ["Top"]
        assert {index.source_id(o) for o in read} == {"Top", "C00", "C01"}


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
        assert index.source_ids() == sorted(discovery.summaries())

    def test_forget_mid_stream_drops_source_and_decrements_cf(
        self, small_federation
    ):
        from repro.metasearch.discovery import DiscoveryService
        from repro.transport import StartsClient

        internet, resource_url, _ = small_federation
        discovery = DiscoveryService(StartsClient(internet))
        discovery.refresh_resource(resource_url)
        before = discovery.summary_index()
        # Pick a word the DB source contributes, then forget the source
        # mid-stream: the index taken beforehand is a snapshot and stays
        # as it was; the next one sheds the source and CORI's cf drops.
        word = next(
            entry.word.lower()
            for entry in discovery.summaries()["Fed-DB"].sections[0].entries
        )
        ids_before = before.source_ids()
        cf_before = before.term_columns(word).collection_frequency
        assert cf_before >= 1 and "Fed-DB" in ids_before
        discovery.forget("Fed-DB")
        assert before.source_ids() == ids_before
        assert before.term_columns(word).collection_frequency == cf_before

        after = discovery.summary_index()
        assert "Fed-DB" not in after
        assert after.term_columns(word).collection_frequency == cf_before - 1
        rebuilt = SummaryIndex.from_summaries(discovery.summaries())
        assert after.sorted_sources() == rebuilt.sorted_sources()
        assert after.term_count == rebuilt.term_count
        for ordinal in range(after.source_count):
            assert after.num_docs(ordinal) == rebuilt.num_docs(ordinal)
            assert after.clamped_word_mass(ordinal) == rebuilt.clamped_word_mass(
                ordinal
            )
        for summary in discovery.summaries().values():
            for term in summary.word_statistics():
                assert after.term_columns(term) == rebuilt.term_columns(term)
        assert after.mean_clamped_word_mass() == rebuilt.mean_clamped_word_mass()
        # Selection over the post-forget index matches the dense oracle
        # over the post-forget summaries.
        assert Cori().rank([word], after) == oracle_rank(
            Cori(), [word], discovery.summaries()
        )
