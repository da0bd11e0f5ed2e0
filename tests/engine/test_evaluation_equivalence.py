"""Property-style equivalence: the engine vs the document-at-a-time oracle.

Both of the engine's evaluation modes — the pruned default and its
term-at-a-time fallback (``repro.engine.evaluation``) — must be
observationally identical to the original per-candidate recursion,
which lives on in ``tests/oracles/daat.py``.  The contract is exact
equality — same hits, same float scores, same TermStats — across every
ranking algorithm, every node type (``list``, fuzzy
``and``/``or``/``and-not``, ``prox``), per-term weights, every modifier
expansion, filter candidates, top-k truncation and minimum scores.
"""

import random

import pytest
from hypothesis import given, settings, strategies as st

from repro.engine import fields as F
from repro.engine.documents import Document
from repro.engine.evaluation import EVALUATION_MODES
from repro.engine.query import AND, AND_NOT, OR, BooleanQuery, ListQuery, ProxQuery, TermQuery
from repro.engine.ranking import RANKING_ALGORITHMS
from repro.engine.search import SearchEngine

from tests.oracles.daat import oracle_search

ALGORITHMS = sorted(RANKING_ALGORITHMS)

#: Vocabulary chosen to exercise every modifier expansion: a stem
#: family, a Soundex-equal pair, a thesaurus group, shared prefixes for
#: right-truncation and shared suffixes for left-truncation.
VOCAB = [
    "connect",
    "connected",
    "connection",
    "retention",
    "smith",
    "smyth",
    "database",
    "databank",
    "datastore",
    "gamma",
    "delta",
    "epsilon",
    "zeta",
]


def build_engine(algorithm_id: str, seed: int, n_docs: int = 30) -> SearchEngine:
    rng = random.Random(seed)
    engine = SearchEngine(ranking=RANKING_ALGORITHMS[algorithm_id]())
    for index in range(n_docs):
        body = " ".join(rng.choices(VOCAB, k=rng.randint(3, 25)))
        fields = {F.BODY_OF_TEXT: body}
        if rng.random() < 0.5:
            fields[F.TITLE] = " ".join(rng.choices(VOCAB, k=rng.randint(1, 4)))
        if rng.random() < 0.3:
            fields[F.AUTHOR] = rng.choice(("smith", "smyth"))
        engine.add(Document(f"http://x/{index}", fields))
    return engine


def assert_search_equivalent(engine, **kwargs):
    """The same search in both engine modes (restoring the default)."""
    oracle = oracle_search(engine, **kwargs)
    default = engine.evaluation
    try:
        for mode in EVALUATION_MODES:
            engine.evaluation = mode
            # doc ids, exact scores, exact TermStats
            assert engine.search(**kwargs) == oracle, mode
    finally:
        engine.evaluation = default


def t(text, weight=1.0, field=F.BODY_OF_TEXT, modifiers=()):
    return TermQuery(field, text, modifiers=frozenset(modifiers), weight=weight)


@pytest.mark.parametrize("algorithm_id", ALGORITHMS)
class TestAllAlgorithms:
    def test_weighted_list(self, algorithm_id):
        engine = build_engine(algorithm_id, seed=1)
        query = ListQuery((t("connect", 0.9), t("database", 0.4), t("zeta", 0.1)))
        assert_search_equivalent(engine, ranking_query=query)

    def test_duplicate_term_different_weights(self, algorithm_id):
        engine = build_engine(algorithm_id, seed=2)
        query = ListQuery((t("gamma", 0.3), t("gamma", 0.8), t("delta")))
        assert_search_equivalent(engine, ranking_query=query)

    def test_fuzzy_boolean_nesting(self, algorithm_id):
        engine = build_engine(algorithm_id, seed=3)
        query = BooleanQuery(
            AND,
            (
                BooleanQuery(OR, (t("connect"), t("database"))),
                BooleanQuery(AND_NOT, (t("gamma"), t("smith"))),
            ),
        )
        assert_search_equivalent(engine, ranking_query=query)

    def test_prox_ranking(self, algorithm_id):
        engine = build_engine(algorithm_id, seed=4)
        for ordered in (True, False):
            query = ListQuery(
                (ProxQuery(t("gamma"), t("delta"), distance=2, ordered=ordered),)
            )
            assert_search_equivalent(engine, ranking_query=query)

    def test_modifier_expansions(self, algorithm_id):
        engine = build_engine(algorithm_id, seed=5)
        for modifiers, text in (
            (("stem",), "connected"),
            (("phonetic",), "smith"),
            (("thesaurus",), "database"),
            (("right-truncation",), "data"),
            (("left-truncation",), "tion"),
        ):
            query = ListQuery((t(text, modifiers=modifiers), t("gamma", 0.5)))
            assert_search_equivalent(engine, ranking_query=query)

    def test_filter_restricts_candidates(self, algorithm_id):
        engine = build_engine(algorithm_id, seed=6)
        # The filter admits documents the ranking terms miss entirely —
        # those must appear with score 0.0 on both paths.
        assert_search_equivalent(
            engine,
            filter_query=BooleanQuery(OR, (t("gamma"), t("smith"))),
            ranking_query=ListQuery((t("database"), t("connect", 0.2))),
        )

    def test_any_field_fanout(self, algorithm_id):
        engine = build_engine(algorithm_id, seed=7)
        query = ListQuery((t("smith", field=F.ANY), t("database", field=F.ANY, weight=0.6)))
        assert_search_equivalent(engine, ranking_query=query)

    def test_absent_term_keeps_zero_stats(self, algorithm_id):
        engine = build_engine(algorithm_id, seed=8)
        query = ListQuery((t("gamma"), t("nosuchword")))
        assert_search_equivalent(engine, ranking_query=query)

    def test_top_k_and_min_score(self, algorithm_id):
        engine = build_engine(algorithm_id, seed=9, n_docs=40)
        query = ListQuery((t("connect"), t("gamma", 0.7), t("database", 0.3)))
        full = engine.search(ranking_query=query)
        min_score = full[len(full) // 2].score if full else 0.0
        for top_k in (None, 1, 3, 10_000):
            assert_search_equivalent(engine, ranking_query=query, top_k=top_k)
            assert_search_equivalent(
                engine, ranking_query=query, top_k=top_k, min_score=min_score
            )

    def test_fuzzy_or_alone_and_filtered(self, algorithm_id):
        engine = build_engine(algorithm_id, seed=10)
        query = BooleanQuery(OR, (t("connect"), t("delta", 0.4)))
        assert_search_equivalent(engine, ranking_query=query)
        assert_search_equivalent(engine, filter_query=t("gamma"), ranking_query=query)


def test_top_k_truncation_is_prefix_of_full_result():
    engine = build_engine("Okapi-1", seed=11, n_docs=40)
    query = ListQuery((t("connect"), t("database", 0.5)))
    full = engine.search(ranking_query=query)
    for top_k in (0, 1, 5, len(full), len(full) + 10):
        truncated = engine.search(ranking_query=query, top_k=top_k)
        assert truncated == full[:top_k]


# -- randomized query trees (hypothesis) --------------------------------

_terms = st.sampled_from(VOCAB)
_weights = st.sampled_from([1.0, 0.9, 0.5, 0.25])
_modifiers = st.sampled_from(
    [(), ("stem",), ("phonetic",), ("thesaurus",), ("right-truncation",), ("left-truncation",)]
)


@st.composite
def ranking_queries(draw, depth=2):
    if depth == 0:
        return TermQuery(
            F.BODY_OF_TEXT,
            draw(_terms),
            modifiers=frozenset(draw(_modifiers)),
            weight=draw(_weights),
        )
    kind = draw(st.sampled_from(["term", "list", "and", "or", "and-not", "prox"]))
    if kind == "term":
        return draw(ranking_queries(depth=0))
    if kind == "prox":
        return ProxQuery(
            TermQuery(F.BODY_OF_TEXT, draw(_terms)),
            TermQuery(F.BODY_OF_TEXT, draw(_terms)),
            draw(st.integers(0, 3)),
            draw(st.booleans()),
        )
    children = tuple(
        draw(ranking_queries(depth=depth - 1))
        for _ in range(2 if kind == "and-not" else draw(st.integers(2, 3)))
    )
    if kind == "list":
        return ListQuery(children)
    return BooleanQuery(kind, children[:2] if kind == "and-not" else children)


@settings(deadline=None)
@given(
    algorithm_id=st.sampled_from(ALGORITHMS),
    seed=st.integers(0, 7),
    query=ranking_queries(),
    with_filter=st.booleans(),
    top_k=st.sampled_from([None, 1, 4]),
)
def test_random_query_trees_equivalent(algorithm_id, seed, query, with_filter, top_k):
    engine = build_engine(algorithm_id, seed=seed, n_docs=15)
    filter_query = (
        BooleanQuery(OR, (t("gamma"), t("connect"), t("smith"))) if with_filter else None
    )
    assert_search_equivalent(
        engine, filter_query=filter_query, ranking_query=query, top_k=top_k
    )


# -- the two-pointer prox merge vs. the quadratic scan -------------------


def _prox_bruteforce(left, right, distance, ordered):
    for p_left in left:
        for p_right in right:
            if p_left == p_right:
                continue
            gap = p_right - p_left - 1 if p_right > p_left else p_left - p_right - 1
            if gap > distance:
                continue
            if ordered and p_right < p_left:
                continue
            return True
    return False


@settings(max_examples=300, deadline=None)
@given(
    left=st.lists(st.integers(0, 30), min_size=1, max_size=8),
    right=st.lists(st.integers(0, 30), min_size=1, max_size=8),
    distance=st.integers(0, 6),
    ordered=st.booleans(),
)
def test_prox_two_pointer_matches_bruteforce(left, right, distance, ordered):
    left, right = sorted(left), sorted(right)
    assert SearchEngine._prox_satisfied(left, right, distance, ordered) == (
        _prox_bruteforce(left, right, distance, ordered)
    )
