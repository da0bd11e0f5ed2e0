"""Source selection: GlOSS family, CORI, baselines, cost awareness."""

import pytest

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
from repro.starts.metadata import SContentSummary, SummaryEntryLine, SummarySection


def summary(num_docs, words):
    """words: {word: (postings, df)}"""
    entries = tuple(
        SummaryEntryLine(word, postings, df) for word, (postings, df) in words.items()
    )
    return SContentSummary(
        num_docs=num_docs,
        sections=(SummarySection("body-of-text", "en", entries),),
    )


@pytest.fixture
def summaries():
    """A DB-heavy source, a slight-DB source, and an unrelated one."""
    return {
        "DB": summary(100, {"databases": (400, 80), "query": (150, 60)}),
        "Mixed": summary(100, {"databases": (40, 20), "patient": (100, 50)}),
        "Med": summary(100, {"patient": (500, 90), "diagnosis": (200, 70)}),
    }


class TestBGloss:
    def test_estimates_conjunctive_matches(self, summaries):
        ranked = BGloss().rank(["databases", "query"], summaries)
        assert ranked[0][0] == "DB"
        # Independence estimate: 100 * 0.8 * 0.6 = 48.
        assert ranked[0][1] == pytest.approx(48.0)

    def test_missing_term_zeroes_source(self, summaries):
        ranked = dict(BGloss().rank(["databases", "diagnosis"], summaries))
        assert ranked["DB"] == 0.0  # no "diagnosis" in DB
        assert ranked["Med"] == 0.0  # no "databases" in Med

    def test_empty_source_scores_zero(self):
        assert BGloss().rank(["x"], {"S": summary(0, {})}) == [("S", 0.0)]


class TestVGloss:
    def test_sum_uses_postings_mass(self, summaries):
        ranked = VGlossSum().rank(["databases"], summaries)
        assert ranked[0] == ("DB", 400.0)

    def test_max_prefers_concentrated_usage(self):
        spread = summary(100, {"databases": (100, 100)})  # 1 occurrence/doc
        dense = summary(100, {"databases": (100, 10)})  # 10 occurrences/doc
        [(_, score_spread)] = VGlossMax().rank(["databases"], {"S": spread})
        [(_, score_dense)] = VGlossMax().rank(["databases"], {"S": dense})
        assert score_spread > 0 and score_dense > 0
        # Max rewards the per-document density signal through avg tf.
        per_doc_dense = score_dense / 10
        per_doc_spread = score_spread / 100
        assert per_doc_dense > per_doc_spread

    def test_topical_source_wins(self, summaries):
        assert VGlossMax().select(["databases", "query"], summaries, 1) == ["DB"]
        assert VGlossMax().select(["patient", "diagnosis"], summaries, 1) == ["Med"]


class TestCori:
    def test_topical_source_wins(self, summaries):
        assert Cori().rank(["databases"], summaries)[0][0] == "DB"

    def test_discriminative_terms_matter(self, summaries):
        """"patient" appears in two sources, "diagnosis" in one: the
        unique term pulls Med ahead of Mixed."""
        ranked = Cori().rank(["patient", "diagnosis"], summaries)
        order = [source_id for source_id, _ in ranked]
        assert order.index("Med") < order.index("Mixed")

    def test_beliefs_bounded(self, summaries):
        for _, goodness in Cori().rank(["databases", "patient"], summaries):
            assert 0.0 <= goodness <= 1.0

    def test_empty_summaries(self):
        assert Cori().rank(["x"], {}) == []


class TestBaselines:
    def test_select_all_is_indifferent(self, summaries):
        ranked = SelectAll().rank(["databases"], summaries)
        assert [goodness for _, goodness in ranked] == [1.0, 1.0, 1.0]

    def test_random_is_seeded(self, summaries):
        a = RandomSelector(seed=5).rank(["databases"], summaries)
        b = RandomSelector(seed=5).rank(["databases"], summaries)
        assert a == b

    def test_random_varies_across_queries(self, summaries):
        selector = RandomSelector(seed=5)
        orders = {
            tuple(s for s, _ in selector.rank([term], summaries))
            for term in ("alpha", "beta", "gamma", "delta", "epsilon")
        }
        assert len(orders) > 1

    def test_by_size(self):
        summaries = {"Small": summary(10, {}), "Big": summary(1000, {})}
        assert BySize().select(["anything"], summaries, 1) == ["Big"]


class TestCostAware:
    def test_expensive_source_demoted(self, summaries):
        plain = VGlossMax()
        costed = CostAware(plain, costs={"DB": 100.0}, tradeoff=1.0)
        assert plain.select(["databases"], summaries, 1) == ["DB"]
        assert costed.select(["databases"], summaries, 1) != ["DB"]

    def test_zero_cost_is_transparent(self, summaries):
        plain = VGlossMax().rank(["databases"], summaries)
        costed = CostAware(VGlossMax(), costs={}).rank(["databases"], summaries)
        assert [s for s, _ in plain] == [s for s, _ in costed]

    def test_name_reflects_inner(self):
        assert "vGlOSS-Max" in CostAware(VGlossMax(), {}).name


class TestDeterminism:
    def test_ties_break_on_source_id(self):
        tied = {"B": summary(10, {"x": (5, 5)}), "A": summary(10, {"x": (5, 5)})}
        ranked = VGlossSum().rank(["x"], tied)
        assert [source_id for source_id, _ in ranked] == ["A", "B"]


class TestSelectArguments:
    @pytest.mark.parametrize(
        "selector",
        [
            BGloss(),
            VGlossSum(),
            VGlossMax(),
            Cori(),
            SelectAll(),
            BySize(),
            RandomSelector(seed=1),
            CostAware(Cori(), {}),
        ],
        ids=lambda selector: selector.name,
    )
    def test_a_negative_k_is_rejected(self, selector, summaries):
        with pytest.raises(ValueError, match="k must be >= 0, got -1"):
            selector.select(["databases"], summaries, -1)
