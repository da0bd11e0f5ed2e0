"""Rank safety of the pruned evaluator: bit-exact against the oracles.

The pruned evaluator (the engine default) promises the exhaustive answer
for less work:
same documents, same float scores, same order, same TermStats — across
every ranking algorithm, both storage backends, and any mid-history
mix of flushes, merges, and tombstones.  Shapes the MaxScore driver
cannot bound (filters, Boolean/prox trees, unprunable algorithms, no
top-k or score floor) must fall back to term-at-a-time transparently.
"""

import random
import sys
import tempfile
import pathlib
import threading

import pytest
from hypothesis import given, settings, strategies as st
from hypothesis.stateful import (
    RuleBasedStateMachine,
    initialize,
    precondition,
    rule,
    run_state_machine_as_test,
)

from repro.engine import fields as F
from repro.engine.documents import Document
from repro.engine.evaluation import (
    PRUNED,
    TERM_AT_A_TIME,
    hit_order_key,
    top_k_hits,
)
from repro.engine.pruning import PrunedContext, supports_pruning
from repro.engine.query import AND_NOT, BooleanQuery, ListQuery, ProxQuery, TermQuery
from repro.engine.ranking import RANKING_ALGORITHMS
from repro.engine.search import SearchEngine
from repro.observability.metrics import MetricsRegistry, set_registry
from repro.storage.merge import TieredMergePolicy

from tests.oracles.daat import oracle_search

ALGORITHMS = sorted(RANKING_ALGORITHMS)

#: Same expansion-rich vocabulary the TAAT/DAAT equivalence suite uses:
#: stem family, Soundex pair, thesaurus group, shared prefixes/suffixes.
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


def t(text, weight=1.0, field=F.BODY_OF_TEXT, modifiers=()):
    return TermQuery(field, text, modifiers=frozenset(modifiers), weight=weight)


def make_documents(seed: int, n_docs: int) -> list[Document]:
    rng = random.Random(seed)
    documents = []
    for index in range(n_docs):
        body = " ".join(rng.choices(VOCAB, k=rng.randint(3, 25)))
        fields = {F.BODY_OF_TEXT: body}
        if rng.random() < 0.5:
            fields[F.TITLE] = " ".join(rng.choices(VOCAB, k=rng.randint(1, 4)))
        engine_fields = fields
        documents.append(Document(f"http://x/{index}", engine_fields))
    return documents


def build_engine(algorithm_id: str, seed: int, n_docs: int = 30) -> SearchEngine:
    engine = SearchEngine(ranking=RANKING_ALGORITHMS[algorithm_id]())
    for document in make_documents(seed, n_docs):
        engine.add(document)
    return engine


def build_segmented_engine(
    algorithm_id: str,
    seed: int,
    directory,
    n_docs: int = 30,
    flush_every: int | None = 10,
    merge: bool = False,
    tombstones: tuple[int, ...] = (),
) -> SearchEngine:
    """A segment-backed engine with a configurable storage history."""
    engine = SearchEngine(
        ranking=RANKING_ALGORITHMS[algorithm_id](),
        storage="segments",
        storage_dir=pathlib.Path(directory) / "store",
    )
    for index, document in enumerate(make_documents(seed, n_docs)):
        engine.add(document)
        if flush_every and (index + 1) % flush_every == 0:
            engine.flush()
    for index in tombstones:
        engine.tombstone(f"http://x/{index}")
    if merge:
        engine.flush()
        assert engine.segment_store is not None
        engine.segment_store.merge_all()
    return engine


def assert_pruned_equivalent(engine, **kwargs):
    """The same search, exhaustive then pruned, must match exactly."""
    engine.evaluation = TERM_AT_A_TIME
    oracle = engine.search(**kwargs)
    engine.evaluation = PRUNED
    pruned = engine.search(**kwargs)
    engine.evaluation = TERM_AT_A_TIME
    assert pruned == oracle  # doc ids, exact scores, order, TermStats
    return oracle


QUERY = ListQuery((t("connect", 0.9), t("database", 0.4), t("gamma", 0.1)))


@pytest.mark.parametrize("algorithm_id", ALGORITHMS)
class TestMemoryBackend:
    def test_truncated_weighted_list(self, algorithm_id):
        engine = build_engine(algorithm_id, seed=1, n_docs=40)
        for top_k in (1, 3, 10, 40, 10_000):
            assert_pruned_equivalent(engine, ranking_query=QUERY, top_k=top_k)

    def test_min_score_only(self, algorithm_id):
        engine = build_engine(algorithm_id, seed=2, n_docs=40)
        engine.evaluation = TERM_AT_A_TIME
        full = engine.search(ranking_query=QUERY)
        for position in (0, len(full) // 2, -1):
            floor = full[position].score if full else 0.5
            assert_pruned_equivalent(
                engine, ranking_query=QUERY, min_score=floor
            )

    def test_top_k_and_min_score_combined(self, algorithm_id):
        engine = build_engine(algorithm_id, seed=3, n_docs=40)
        engine.evaluation = TERM_AT_A_TIME
        full = engine.search(ranking_query=QUERY)
        floor = full[len(full) // 2].score if full else 0.1
        for top_k in (1, 5, 20):
            assert_pruned_equivalent(
                engine, ranking_query=QUERY, top_k=top_k, min_score=floor
            )

    def test_single_term_and_duplicates(self, algorithm_id):
        engine = build_engine(algorithm_id, seed=4, n_docs=40)
        assert_pruned_equivalent(engine, ranking_query=t("connect"), top_k=5)
        assert_pruned_equivalent(
            engine,
            ranking_query=ListQuery((t("gamma", 0.3), t("gamma", 0.8), t("delta"))),
            top_k=5,
        )

    def test_modifier_expansions(self, algorithm_id):
        engine = build_engine(algorithm_id, seed=5, n_docs=40)
        for modifiers, text in (
            (("stem",), "connected"),
            (("phonetic",), "smith"),
            (("thesaurus",), "database"),
            (("right-truncation",), "data"),
            (("left-truncation",), "tion"),
        ):
            query = ListQuery((t(text, modifiers=modifiers), t("gamma", 0.5)))
            assert_pruned_equivalent(engine, ranking_query=query, top_k=4)

    def test_any_field_fanout(self, algorithm_id):
        engine = build_engine(algorithm_id, seed=6, n_docs=40)
        query = ListQuery(
            (t("smith", field=F.ANY), t("database", field=F.ANY, weight=0.6))
        )
        assert_pruned_equivalent(engine, ranking_query=query, top_k=3)

    def test_absent_term(self, algorithm_id):
        engine = build_engine(algorithm_id, seed=7)
        query = ListQuery((t("gamma"), t("nosuchword")))
        assert_pruned_equivalent(engine, ranking_query=query, top_k=5)

    def test_against_document_at_a_time_too(self, algorithm_id):
        engine = build_engine(algorithm_id, seed=8, n_docs=40)
        oracle = oracle_search(engine, ranking_query=QUERY, top_k=7)
        engine.evaluation = PRUNED
        pruned = engine.search(ranking_query=QUERY, top_k=7)
        assert pruned == oracle


@pytest.mark.parametrize("algorithm_id", ALGORITHMS)
class TestSegmentsBackend:
    def test_mixed_tail_and_segments(self, algorithm_id):
        with tempfile.TemporaryDirectory() as tmp:
            engine = build_segmented_engine(
                algorithm_id, seed=11, directory=tmp, n_docs=35, flush_every=10
            )
            for top_k in (1, 5, 35):
                assert_pruned_equivalent(engine, ranking_query=QUERY, top_k=top_k)
            engine.close()

    def test_merged_history(self, algorithm_id):
        with tempfile.TemporaryDirectory() as tmp:
            engine = build_segmented_engine(
                algorithm_id, seed=12, directory=tmp, n_docs=35,
                flush_every=7, merge=True,
            )
            assert_pruned_equivalent(engine, ranking_query=QUERY, top_k=5)
            engine.close()

    def test_tombstoned_history(self, algorithm_id):
        with tempfile.TemporaryDirectory() as tmp:
            engine = build_segmented_engine(
                algorithm_id, seed=13, directory=tmp, n_docs=35,
                flush_every=10, tombstones=(0, 7, 18, 33),
            )
            for top_k in (1, 5, 35):
                assert_pruned_equivalent(engine, ranking_query=QUERY, top_k=top_k)
            engine.close()

    def test_tombstones_then_merge(self, algorithm_id):
        with tempfile.TemporaryDirectory() as tmp:
            engine = build_segmented_engine(
                algorithm_id, seed=14, directory=tmp, n_docs=35,
                flush_every=10, tombstones=(2, 11, 29), merge=True,
            )
            engine.evaluation = TERM_AT_A_TIME
            full = engine.search(ranking_query=QUERY)
            floor = full[len(full) // 2].score if full else 0.1
            assert_pruned_equivalent(
                engine, ranking_query=QUERY, top_k=5, min_score=floor
            )
            engine.close()


# -- fallback shapes ------------------------------------------------------


class TestFallback:
    def test_unsupported_shapes_fall_back(self):
        ranking = RANKING_ALGORITHMS["Okapi-1"]()
        assert supports_pruning(ranking, QUERY, 5, 0.0)
        # No bound to prune against.
        assert not supports_pruning(ranking, QUERY, None, 0.0)
        # Non-flat shapes.
        boolean = BooleanQuery(AND_NOT, (t("gamma"), t("smith")))
        assert not supports_pruning(ranking, boolean, 5, 0.0)
        prox = ListQuery((ProxQuery(t("gamma"), t("delta"), 2, True),))
        assert not supports_pruning(ranking, prox, 5, 0.0)
        # Negative weights break the non-negativity the bounds need.
        negative = ListQuery((t("gamma", weight=-1.0), t("delta")))
        assert not supports_pruning(ranking, negative, 5, 0.0)
        # Unprunable algorithm (top-document rescaling).
        zeus = RANKING_ALGORITHMS["Zeus-1000"]()
        assert not supports_pruning(zeus, QUERY, 5, 0.0)
        # Boolean-only engine.
        assert not supports_pruning(None, QUERY, 5, 0.0)

    @pytest.mark.parametrize("algorithm_id", ALGORITHMS)
    def test_fallback_results_still_exact(self, algorithm_id):
        engine = build_engine(algorithm_id, seed=21, n_docs=30)
        # Filters force the fallback path even under evaluation="pruned".
        assert_pruned_equivalent(
            engine,
            filter_query=BooleanQuery("or", (t("gamma"), t("smith"))),
            ranking_query=QUERY,
            top_k=5,
        )
        # Boolean ranking trees and prox fall back too.
        assert_pruned_equivalent(
            engine,
            ranking_query=BooleanQuery("and", (t("connect"), t("database"))),
            top_k=5,
        )
        assert_pruned_equivalent(
            engine,
            ranking_query=ListQuery((ProxQuery(t("gamma"), t("delta"), 2, False),)),
            top_k=5,
        )
        # Untruncated, unfloored searches are exhaustive by definition.
        assert_pruned_equivalent(engine, ranking_query=QUERY)

    def test_filter_only_and_empty_queries(self):
        engine = build_engine("Acme-1", seed=22)
        engine.evaluation = PRUNED
        assert engine.search() == []
        hits = engine.search(filter_query=t("gamma"), top_k=3)
        assert all(hit.score == 0.0 for hit in hits)


# -- the kth-boundary tie contract ----------------------------------------


class TestTieDeterminism:
    def _tied_engine(self):
        # Identical documents produce exactly equal scores; with eight
        # clones, any top-k inside the run of duplicates exercises the
        # kth-boundary tie-break.
        engine = SearchEngine(ranking=RANKING_ALGORITHMS["Okapi-1"]())
        for index in range(8):
            engine.add(
                Document(f"http://tie/{index}", {F.BODY_OF_TEXT: "gamma delta gamma"})
            )
        for index in range(4):
            engine.add(
                Document(f"http://other/{index}", {F.BODY_OF_TEXT: "delta epsilon"})
            )
        return engine

    def test_order_key_contract(self):
        scores = {3: 0.5, 1: 0.5, 2: 0.7, 9: 0.5, 4: 0.1}
        selected = top_k_hits(scores, None)
        assert selected == sorted(scores.items(), key=hit_order_key)
        assert [doc_id for doc_id, _ in selected] == [2, 1, 3, 9, 4]

    def test_duplicate_scores_straddling_k(self):
        engine = self._tied_engine()
        engine.evaluation = TERM_AT_A_TIME
        query = ListQuery((t("gamma"), t("delta", 0.5)))
        full = engine.search(ranking_query=query)
        tied = [hit.doc_id for hit in full if hit.score == full[0].score]
        assert len(tied) >= 8 and tied == sorted(tied)
        # Every cut inside the tie run keeps the lowest doc ids, on
        # both the heap-selected exhaustive path and the pruned path.
        for top_k in range(1, len(full) + 1):
            truncated = engine.search(ranking_query=query, top_k=top_k)
            assert truncated == full[:top_k]
            engine.evaluation = PRUNED
            pruned = engine.search(ranking_query=query, top_k=top_k)
            engine.evaluation = TERM_AT_A_TIME
            assert pruned == full[:top_k]

    def test_min_score_exactly_at_tie(self):
        engine = self._tied_engine()
        query = ListQuery((t("gamma"), t("delta", 0.5)))
        engine.evaluation = TERM_AT_A_TIME
        full = engine.search(ranking_query=query)
        # A floor equal to the tied score keeps the whole run (>=).
        assert_pruned_equivalent(
            engine, ranking_query=query, min_score=full[0].score
        )


# -- counters and metrics -------------------------------------------------


class TestPruningObservability:
    def test_pruning_actually_skips(self):
        engine = build_engine("Okapi-1", seed=31, n_docs=200)
        query = ListQuery((t("connect", 2.0), t("gamma"), t("zeta", 0.5)))
        assert supports_pruning(engine.ranking, query, 5, 0.0)
        context = PrunedContext(engine, query, top_k=5, min_score=0.0)
        context.hits()
        assert context.postings_skipped > 0
        assert context.threshold > 0.0

    def test_blockmax_skips_on_segments(self):
        with tempfile.TemporaryDirectory() as tmp:
            engine = build_segmented_engine(
                "Okapi-1", seed=32, directory=tmp, n_docs=400, flush_every=200
            )
            query = ListQuery((t("connect", 2.0), t("gamma"), t("zeta", 0.5)))
            context = PrunedContext(engine, query, top_k=3, min_score=0.0)
            context.hits()
            assert context.postings_skipped > 0
            engine.close()

    def test_metrics_emitted_and_disabled_neutral(self):
        registry = MetricsRegistry()
        set_registry(registry)
        try:
            engine = build_engine("Okapi-1", seed=33, n_docs=100)
            engine.evaluation = PRUNED
            baseline = engine.search(ranking_query=QUERY, top_k=3)
            families = {family.name for family in registry.families()}
            assert "engine_postings_skipped_total" in families
            # Disabled registry: identical hits, nothing recorded.
            disabled = MetricsRegistry.disabled()
            set_registry(disabled)
            assert engine.search(ranking_query=QUERY, top_k=3) == baseline
            assert not disabled.families()
        finally:
            set_registry(MetricsRegistry())


# -- randomized corpora and queries (hypothesis) --------------------------

_terms = st.sampled_from(VOCAB)
_weights = st.sampled_from([1.0, 0.9, 0.5, 0.25, 0.0])
_modifiers = st.sampled_from(
    [(), ("stem",), ("phonetic",), ("thesaurus",), ("right-truncation",)]
)


@st.composite
def flat_queries(draw):
    """Shapes the pruned driver accepts: a term or a list of terms."""
    n_children = draw(st.integers(1, 4))
    children = tuple(
        TermQuery(
            F.BODY_OF_TEXT,
            draw(_terms),
            modifiers=frozenset(draw(_modifiers)),
            weight=draw(_weights),
        )
        for _ in range(n_children)
    )
    if n_children == 1 and draw(st.booleans()):
        return children[0]
    return ListQuery(children)


@settings(max_examples=120, deadline=None)
@given(
    algorithm_id=st.sampled_from(ALGORITHMS),
    seed=st.integers(0, 7),
    query=flat_queries(),
    top_k=st.sampled_from([None, 1, 3, 8]),
    floor_quantile=st.sampled_from([None, 0.25, 0.75]),
)
def test_random_queries_equivalent_memory(
    algorithm_id, seed, query, top_k, floor_quantile
):
    engine = build_engine(algorithm_id, seed=seed, n_docs=25)
    min_score = 0.0
    if floor_quantile is not None:
        engine.evaluation = TERM_AT_A_TIME
        full = engine.search(ranking_query=query)
        if full:
            min_score = full[int((len(full) - 1) * floor_quantile)].score
    assert_pruned_equivalent(
        engine, ranking_query=query, top_k=top_k, min_score=min_score
    )


@settings(max_examples=40, deadline=None)
@given(
    algorithm_id=st.sampled_from(ALGORITHMS),
    seed=st.integers(0, 3),
    query=flat_queries(),
    top_k=st.sampled_from([1, 4]),
    history=st.sampled_from(
        [
            {"flush_every": None},
            {"flush_every": 8},
            {"flush_every": 8, "merge": True},
            {"flush_every": 10, "tombstones": (1, 9, 17)},
            {"flush_every": 6, "tombstones": (0, 12), "merge": True},
        ]
    ),
)
def test_random_queries_equivalent_segments(
    algorithm_id, seed, query, top_k, history
):
    with tempfile.TemporaryDirectory() as tmp:
        engine = build_segmented_engine(
            algorithm_id, seed=seed, directory=tmp, n_docs=25, **history
        )
        try:
            assert_pruned_equivalent(engine, ranking_query=query, top_k=top_k)
        finally:
            engine.close()


# -- warm term state: lifetime, tagging, sharing --------------------------
#
# The pruned driver reads each (field, term) through a memoized accessor
# that lives until the index's layout key moves.  Everything below is
# about that lifetime: a stale accessor, an untagged weight column or a
# mutated shared column each fail one of these.

PLAIN_QUERIES = [
    ListQuery((t("connect", 0.9), t("database", 0.4), t("gamma", 0.1))),
    ListQuery((t("gamma"), t("delta", 0.5), t("zeta", 0.25), t("smith"))),
    ListQuery((t("retention", 0.7), t("epsilon"), t("nosuchword"))),
    ListQuery((t("gamma", 0.3), t("gamma", 0.8), t("delta"))),
    t("database"),
]


def by_linkage(engine, hits):
    """Hits keyed the way STARTS keys them: a memory engine that removed
    a document renumbers the rest, a tombstoning one does not."""
    return [(engine.store[hit.doc_id].linkage, hit.score, hit.term_stats) for hit in hits]


class WarmTermStateMachine(RuleBasedStateMachine):
    """add / flush / tombstone / merge interleaved with pruned searches.

    Every search is issued twice on the segments engine — the first may
    build term state, the second must find it warm — and both must equal
    a ``storage="memory"`` term-at-a-time engine fed the same history,
    hit for hit including TermStats.
    """

    def __init__(self):
        super().__init__()
        self._tmp = tempfile.TemporaryDirectory()
        self.live: list[str] = []
        self.added = 0

    @initialize(algorithm_id=st.sampled_from(ALGORITHMS))
    def open_engines(self, algorithm_id):
        self.oracle = SearchEngine(ranking=RANKING_ALGORITHMS[algorithm_id]())
        self.segmented = SearchEngine(
            ranking=RANKING_ALGORITHMS[algorithm_id](),
            evaluation=PRUNED,
            storage="segments",
            storage_dir=pathlib.Path(self._tmp.name) / "store",
            merge_policy=TieredMergePolicy(merge_factor=2),
        )

    @rule(bodies=st.lists(st.lists(_terms, min_size=1, max_size=12), min_size=1, max_size=6))
    def add(self, bodies):
        for words in bodies:
            document = Document(
                f"http://x/{self.added}", {F.BODY_OF_TEXT: " ".join(words)}
            )
            self.added += 1
            self.live.append(document.linkage)
            self.oracle.add(document)
            self.segmented.add(document)

    @rule()
    def flush(self):
        self.segmented.flush()

    @rule()
    def merge(self):
        self.segmented.checkpoint(merge=True)

    @precondition(lambda self: self.live)
    @rule(data=st.data())
    def tombstone(self, data):
        linkage = self.live.pop(data.draw(st.integers(0, len(self.live) - 1)))
        assert self.segmented.tombstone(linkage)
        assert self.oracle.remove(linkage)

    @rule(query=flat_queries(), top_k=st.sampled_from([1, 3, 8]))
    def search_cold_then_warm(self, query, top_k):
        expected = by_linkage(
            self.oracle, self.oracle.search(ranking_query=query, top_k=top_k)
        )
        for _ in ("cold", "warm"):
            hits = self.segmented.search(ranking_query=query, top_k=top_k)
            assert by_linkage(self.segmented, hits) == expected

    def teardown(self):
        if hasattr(self, "segmented"):
            self.segmented.close()
        self._tmp.cleanup()


def test_warm_state_survives_any_storage_history():
    run_state_machine_as_test(
        WarmTermStateMachine,
        settings=settings(stateful_step_count=30, deadline=None),
    )


def stored_tfs(engine, word):
    """``doc id -> tf`` of ``word`` read off the live stored documents."""
    counts = {
        doc_id: engine.store[doc_id].body.split().count(word)
        for doc_id in engine.store.ids()
    }
    return {doc_id: tf for doc_id, tf in counts.items() if tf}


def search_all(engine, queries=PLAIN_QUERIES, top_k=3):
    return [engine.search(ranking_query=query, top_k=top_k) for query in queries]


@pytest.fixture
def warm_reopened(tmp_path):
    """A flushed, partly tombstoned store served from a warm reopen."""
    build_segmented_engine(
        "Okapi-1", seed=41, directory=tmp_path, n_docs=300, flush_every=70,
        tombstones=(3, 120, 251),
    ).close()
    engine = SearchEngine(
        ranking=RANKING_ALGORITHMS["Okapi-1"](),
        evaluation=PRUNED,
        storage="segments",
        storage_dir=tmp_path / "store",
    )
    yield engine
    engine.close()


class TestWarmTermState:
    @pytest.mark.parametrize("storage", ["memory", "segments"])
    def test_swapped_ranking_gets_its_own_weights(self, storage, tmp_path):
        """The weight column is tagged: warm state built under one
        algorithm must not answer for the next one."""
        if storage == "memory":
            engine = build_engine("Okapi-1", seed=42, n_docs=120)
        else:
            engine = build_segmented_engine(
                "Okapi-1", seed=42, directory=tmp_path, n_docs=120, flush_every=50
            )
        engine.evaluation = PRUNED
        search_all(engine)  # warm every column under Okapi-1
        for algorithm_id in ("Salton-2", "Acme-1", "Okapi-1"):
            engine.ranking = RANKING_ALGORITHMS[algorithm_id]()
            oracle = build_engine(algorithm_id, seed=42, n_docs=120)
            assert search_all(engine) == search_all(oracle)
            assert search_all(engine) == search_all(oracle)  # and warm
        engine.close()

    def test_state_is_memoized_until_the_layout_moves(self, tmp_path):
        engine = build_segmented_engine(
            "Okapi-1", seed=43, directory=tmp_path, n_docs=40, flush_every=15
        )
        engine.segment_store.merge_policy = TieredMergePolicy(merge_factor=2)
        index = engine.index
        state = index.pruned_postings(F.BODY_OF_TEXT, "gamma")
        assert index.pruned_postings(F.BODY_OF_TEXT, "gamma") is state
        # An add lands in the tail, which the accessor follows warm.
        engine.add(Document("http://x/new", {F.BODY_OF_TEXT: "gamma"}))
        assert index.pruned_postings(F.BODY_OF_TEXT, "gamma") is state
        assert state.tf_map() == stored_tfs(engine, "gamma")
        for move in (
            engine.flush,
            lambda: engine.tombstone("http://x/0"),
            lambda: engine.checkpoint(merge=True),
        ):
            move()
            moved = index.pruned_postings(F.BODY_OF_TEXT, "gamma")
            assert moved is not state
            assert moved.tf_map() == stored_tfs(engine, "gamma")
            state = moved
        # In memory the record is the layout: an add grows it in place.
        memory = build_engine("Okapi-1", seed=43).index
        state = memory.pruned_postings(F.BODY_OF_TEXT, "gamma")
        assert memory.pruned_postings(F.BODY_OF_TEXT, "gamma") is state
        df = state.df
        memory.add_field_tokens(99, F.BODY_OF_TEXT, [("gamma", "gamma", 0)])
        assert memory.pruned_postings(F.BODY_OF_TEXT, "gamma") is state
        assert state.df == df + 1 and state.probe(99) == 1
        engine.close()

    @pytest.mark.parametrize("storage", ["memory", "segments"])
    def test_a_growing_tail_is_reweighted(self, storage, tmp_path):
        """add → search → add to the same term → search.  The term's
        record (or the accessor following it) is the same object across
        the second add, so its weight column must not answer for the
        longer list — not even for a reader that still passes the
        collection size and average length it read before the add."""
        if storage == "memory":
            engine = build_engine("Okapi-1", seed=45, n_docs=30)
        else:
            engine = build_segmented_engine(
                "Okapi-1", seed=45, directory=tmp_path, n_docs=30, flush_every=12
            )
        engine.evaluation = PRUNED
        oracle = build_engine("Okapi-1", seed=45, n_docs=30)
        oracle.evaluation = TERM_AT_A_TIME
        query = ListQuery((t("gamma"), t("delta", 0.5)))
        growth = ("gamma gamma delta", "delta gamma gamma gamma")
        for number, body in enumerate(growth):
            document = Document(f"http://x/grow-{number}", {F.BODY_OF_TEXT: body})
            engine.add(document)
            oracle.add(document)
            state = engine.index.pruned_postings(F.BODY_OF_TEXT, "gamma")
            if number:
                assert state is warm
                assert set(state.weight_map(*read_before)) == set(state.columns()[0])
            warm = state
            read_before = (
                engine.ranking,
                engine.document_count,
                engine.store.token_count,
                engine.store.average_token_count(),
            )
            state.weight_map(*read_before)
            assert by_linkage(
                engine, engine.search(ranking_query=query, top_k=3)
            ) == by_linkage(oracle, oracle.search(ranking_query=query, top_k=3))
        engine.close()

    def test_queries_get_their_own_maps(self, warm_reopened):
        """Published columns are shared; the dicts the driver writes
        into during probe passes are not."""
        state = warm_reopened.index.pruned_postings(F.BODY_OF_TEXT, "gamma")
        ranking = warm_reopened.ranking
        args = (
            ranking,
            warm_reopened.document_count,
            warm_reopened.store.token_count,
            warm_reopened.store.average_token_count(),
        )
        first, second = state.tf_map(), state.tf_map()
        assert first == second and first is not second
        weights, again = state.weight_map(*args), state.weight_map(*args)
        assert weights == again and weights is not again
        first.clear()
        weights.clear()
        assert state.tf_map() == second and state.weight_map(*args) == again

    def test_eight_threads_match_serial_answers_and_counters(self, warm_reopened):
        counters = (
            "engine_postings_walked_total",
            "engine_postings_skipped_total",
            "engine_blocks_skipped_total",
        )

        def totals(registry):
            return {
                name: family.labels().value if (family := registry.family(name)) else 0
                for name in counters
            }

        try:
            serial_registry = set_registry(MetricsRegistry())
            serial = search_all(warm_reopened, top_k=5)
            serial_totals = totals(serial_registry)
            assert serial_totals["engine_postings_skipped_total"] > 0

            threaded_registry = set_registry(MetricsRegistry())
            answers: list = [None] * 8
            barrier = threading.Barrier(8)

            def caller(slot):
                barrier.wait(timeout=30)
                answers[slot] = search_all(warm_reopened, top_k=5)

            threads = [threading.Thread(target=caller, args=(slot,)) for slot in range(8)]
            interval = sys.getswitchinterval()
            sys.setswitchinterval(1e-5)
            try:
                for thread in threads:
                    thread.start()
                for thread in threads:
                    thread.join(timeout=60)
            finally:
                sys.setswitchinterval(interval)
            assert not any(thread.is_alive() for thread in threads)
            assert answers == [serial] * 8
            assert totals(threaded_registry) == {
                name: 8 * value for name, value in serial_totals.items()
            }
        finally:
            set_registry(MetricsRegistry())

    def test_ranking_decodes_no_positions(self, warm_reopened):
        """Neither the pruned path nor an existence check decodes a
        position: no accessor the searches built holds any."""
        assert any(search_all(warm_reopened))
        _, accessors = warm_reopened.index._accessors
        assert accessors
        assert all(state._segment_positions is None for state in accessors.values())

    @pytest.mark.parametrize("storage", ["memory", "segments"])
    def test_has_postings_agrees_with_postings(self, storage, tmp_path):
        if storage == "memory":
            engine = build_engine("Okapi-1", seed=44, n_docs=30)
        else:
            engine = build_segmented_engine(
                "Okapi-1", seed=44, directory=tmp_path, n_docs=30, flush_every=12
            )
            # One word only these two documents hold: tombstoning both
            # leaves it in two lexicons with no live posting.
            for linkage in ("http://only/0", "http://only/1"):
                engine.add(Document(linkage, {F.BODY_OF_TEXT: "lonely gamma"}))
                engine.flush()
            assert engine.index.has_postings(F.BODY_OF_TEXT, "lonely")
            for linkage in ("http://only/0", "http://only/1"):
                engine.tombstone(linkage)
            assert not engine.index.has_postings(F.BODY_OF_TEXT, "lonely")
            engine.add(Document("http://x/tail", {F.BODY_OF_TEXT: "tailword"}))
        index = engine.index
        for field in (*index.fields(), "no-such-field"):
            for term in (*index.vocabulary(field), "lonely", "nosuchword", ""):
                assert index.has_postings(field, term) == bool(
                    index.pruned_postings(field, term).columns()[0]
                ), (field, term)
        engine.close()
