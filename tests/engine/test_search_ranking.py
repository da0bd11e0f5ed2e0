"""Vector-space ranking: fuzzy operators, weights, term statistics."""

import pytest

from repro.engine import fields as F
from repro.engine.documents import Document
from repro.engine.evaluation import EVALUATION_MODES
from repro.engine.query import BooleanQuery, ListQuery, ProxQuery, TermQuery
from repro.engine.search import SearchEngine, TermHitStats


def t(text, weight=1.0):
    return TermQuery(F.BODY_OF_TEXT, text, weight=weight)


def ranked(engine, query):
    """doc id → score of a ranking-only search."""
    return {hit.doc_id: hit.score for hit in engine.search(ranking_query=query)}


@pytest.fixture
def engine():
    e = SearchEngine()
    e.add(Document("http://x/0", {F.BODY_OF_TEXT: "databases databases databases"}))
    e.add(Document("http://x/1", {F.BODY_OF_TEXT: "databases and networks"}))
    e.add(Document("http://x/2", {F.BODY_OF_TEXT: "networks networks routing"}))
    return e


class TestListRanking:
    def test_higher_tf_ranks_higher(self, engine):
        hits = engine.search(ranking_query=ListQuery((t("databases"),)))
        assert hits[0].doc_id == 0
        assert hits[0].score > hits[1].score

    def test_only_matching_documents_returned(self, engine):
        hits = engine.search(ranking_query=ListQuery((t("routing"),)))
        assert [hit.doc_id for hit in hits] == [2]

    def test_term_weights_tilt_ranking(self, engine):
        """Example 5: per-term weights change which document wins."""
        net_tilted = ListQuery((t("databases", 0.1), t("networks", 0.9)))
        db_tilted = ListQuery((t("databases", 0.9), t("networks", 0.1)))
        net_hits = engine.search(ranking_query=net_tilted)
        db_hits = engine.search(ranking_query=db_tilted)
        net_ranks = {hit.doc_id: rank for rank, hit in enumerate(net_hits)}
        db_ranks = {hit.doc_id: rank for rank, hit in enumerate(db_hits)}
        # Doc 2 (networks-heavy) beats doc 0 (databases-heavy) only
        # under the networks-tilted weights.
        assert net_ranks[2] < net_ranks[0]
        assert db_ranks[0] < db_ranks[2]

    def test_deterministic_tiebreak_by_doc_id(self):
        engine = SearchEngine()
        engine.add(Document("http://x/0", {F.BODY_OF_TEXT: "identical words"}))
        engine.add(Document("http://x/1", {F.BODY_OF_TEXT: "identical words"}))
        hits = engine.search(ranking_query=ListQuery((t("identical"),)))
        assert [hit.doc_id for hit in hits] == [0, 1]


class TestFuzzyOperators:
    """Example 4: boolean-like operators in ranking expressions get
    fuzzy-logic readings — and=min, or=max."""

    def test_and_is_min(self, engine):
        both = BooleanQuery("and", (t("databases"), t("networks")))
        scores = ranked(engine, both)
        # Doc 1 contains both; docs 0 and 2 miss one -> min is 0.
        assert scores.get(0, 0.0) == 0.0
        assert scores[1] > 0.0
        assert scores.get(2, 0.0) == 0.0

    def test_or_is_max(self, engine):
        either = BooleanQuery("or", (t("databases"), t("networks")))
        scores = ranked(engine, either)
        assert all(score > 0.0 for score in scores.values())
        assert set(scores) == {0, 1, 2}

    def test_and_not_subtracts(self, engine):
        query = BooleanQuery("and-not", (t("databases"), t("networks")))
        scores = ranked(engine, query)
        # Doc 0 has no "networks": full score.  Doc 1 has both: reduced.
        assert scores[0] > scores.get(1, 0.0)

    def test_and_not_never_negative(self, engine):
        query = BooleanQuery("and-not", (t("databases"), t("networks")))
        scores = ranked(engine, query)
        assert all(score >= 0.0 for score in scores.values())

    def test_prox_scores_only_when_satisfied(self, engine):
        close = ProxQuery(t("databases"), t("networks"), distance=1, ordered=True)
        scores = ranked(engine, close)
        assert scores.get(1, 0.0) > 0.0  # "databases and networks"
        assert scores.get(0, 0.0) == 0.0

    def test_list_and_and_differ(self, engine):
        """The same terms under list() vs and score differently
        (Example 4's R1 vs R2)."""
        list_scores = ranked(engine, ListQuery((t("databases"), t("networks"))))
        and_scores = ranked(engine, BooleanQuery("and", (t("databases"), t("networks"))))
        assert list_scores[0] > 0.0
        assert and_scores.get(0, 0.0) == 0.0


class TestFilterPlusRanking:
    def test_filter_restricts_ranked_set(self, engine):
        hits = engine.search(
            filter_query=t("networks"),
            ranking_query=ListQuery((t("databases"),)),
        )
        assert {hit.doc_id for hit in hits} == {1, 2}

    def test_filtered_nonmatching_rank_terms_score_zero(self, engine):
        hits = engine.search(
            filter_query=t("routing"),
            ranking_query=ListQuery((t("databases"),)),
        )
        assert len(hits) == 1
        assert hits[0].score == 0.0

    def test_filter_only_returns_zero_scores(self, engine):
        hits = engine.search(filter_query=t("databases"))
        assert [hit.score for hit in hits] == [0.0, 0.0]
        assert [hit.doc_id for hit in hits] == [0, 1]

    def test_no_queries_returns_empty(self, engine):
        assert engine.search() == []

    @pytest.mark.parametrize("evaluation", EVALUATION_MODES)
    def test_top_k_zero_evaluates_nothing(self, engine, evaluation):
        """``MaxNumberDocuments 0``: no hit, and no posting walked or
        skipped, on the pruned path and on the exhaustive one."""
        engine.evaluation = evaluation
        ranking = ListQuery((t("databases"), t("networks", 0.5)))
        for filter_query in (None, t("networks")):
            assert engine._search_timed(
                filter_query, ranking, top_k=0, min_score=0.0
            ) == ([], 0, False, 0, 0)

    def test_boolean_only_engine_has_nothing_to_rank_by(self):
        engine = SearchEngine(ranking=None)
        engine.add(Document("http://x/0", {F.BODY_OF_TEXT: "text"}))
        assert engine.search(ranking_query=ListQuery((t("text"),))) == []

    def test_boolean_only_engine_filter_still_works(self):
        engine = SearchEngine(ranking=None)
        engine.add(Document("http://x/0", {F.BODY_OF_TEXT: "text"}))
        hits = engine.search(filter_query=t("text"), ranking_query=ListQuery((t("text"),)))
        assert [hit.doc_id for hit in hits] == [0]


class TestTermStatistics:
    def test_term_stats_report_tf_weight_df(self, engine):
        hits = engine.search(ranking_query=ListQuery((t("databases"),)))
        stats = hits[0].term_stats[0]
        assert stats.text == "databases"
        assert stats.term_frequency == 3
        assert stats.document_frequency == 2
        assert stats.term_weight > 0.0

    def test_term_stats_are_immutable_five_field_records(self, engine):
        hits = engine.search(ranking_query=ListQuery((t("databases"),)))
        stats = hits[0].term_stats[0]
        assert TermHitStats._fields == (
            "field", "text", "term_frequency", "term_weight", "document_frequency"
        )
        assert repr(stats) == (
            f"TermHitStats(field='body-of-text', text='databases', "
            f"term_frequency=3, term_weight={stats.term_weight!r}, "
            f"document_frequency=2)"
        )
        with pytest.raises(AttributeError):
            stats.term_frequency = 4

    def test_stats_for_absent_terms_zero(self, engine):
        hits = engine.search(
            ranking_query=ListQuery((t("databases"), t("missing")))
        )
        absent = hits[0].term_stats[1]
        assert absent.term_frequency == 0
        assert absent.term_weight == 0.0

    def test_document_frequency_helper(self, engine):
        def df(word):
            return engine.index.pruned_postings(F.BODY_OF_TEXT, word).df

        assert df("databases") == 2
        assert df("routing") == 1
        assert df("missing") == 0
