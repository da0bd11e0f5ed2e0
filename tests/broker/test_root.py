"""The root broker: exact descent, pruning, topology, nesting."""

import pytest

from repro.broker import LeafBroker, RootBroker, build_hierarchy
from repro.federation import AsyncExecutor
from repro.metasearch.selection import (
    BGloss,
    BySize,
    Cori,
    RandomSelector,
    SelectAll,
    VGlossMax,
    VGlossSum,
)
from repro.observability import MetricsRegistry, get_registry, set_registry

from tests.broker.util import demo_population, flat_index, make_summary, populated

SELECTORS = [Cori, BGloss, VGlossSum, VGlossMax, BySize, SelectAll]


@pytest.fixture
def registry():
    previous = get_registry()
    fresh = MetricsRegistry()
    set_registry(fresh)
    yield fresh
    set_registry(previous)


class TestExactness:
    """The flat single-broker index is the oracle, bit for bit."""

    @pytest.mark.parametrize("selector_cls", SELECTORS)
    @pytest.mark.parametrize("n_leaves", [1, 2, 3, 5])
    def test_select_matches_flat(self, selector_cls, n_leaves):
        population = demo_population()
        index = flat_index(population)
        root = populated(n_leaves, population)
        for terms in (["databases"], ["databases", "retrieval"], ["absent"], []):
            for k in (1, 3, 10, 100):
                selector = selector_cls()
                assert root.select(selector, terms, k) == selector_cls().select(
                    terms, index, k
                )

    @pytest.mark.parametrize("selector_cls", SELECTORS)
    def test_rank_matches_flat_with_identical_floats(self, selector_cls):
        # k = the source count: the whole ranking, through the one path
        # that ships.
        population = demo_population()
        index = flat_index(population)
        root = populated(3, population)
        terms = ["databases", "query"]
        ranking = root.top_candidates(selector_cls(), terms, len(index))
        assert ranking == selector_cls().rank(terms, index)

    def test_parallel_executor_preserves_exactness(self):
        # Leaf consultations are plain callables: AsyncExecutor runs
        # them on its worker pool, several leaves at once.
        population = demo_population()
        index = flat_index(population)
        root = populated(4, population, executor=AsyncExecutor(max_concurrency=4))
        terms = ["retrieval", "systems"]
        assert root.select(Cori(), terms, 5) == Cori().select(terms, index, 5)

    def test_k_nonpositive_and_empty_hierarchy(self):
        root = populated(2, demo_population())
        assert root.top_candidates(Cori(), ["databases"], 0) == []
        assert RootBroker([]).top_candidates(Cori(), ["databases"], 3) == []


class TestPruning:
    def _topical_root(self):
        db = LeafBroker("db")
        db.apply_delta("DB-0", make_summary(10, {"databases": (30, 8)}))
        med = LeafBroker("med")
        med.apply_delta("Med-0", make_summary(10, {"medicine": (30, 8)}))
        return RootBroker([db, med]), db, med

    def test_prunable_selector_skips_untouched_leaves(self, registry):
        root, _, _ = self._topical_root()
        root.select(Cori(), ["databases"], 1)
        scored = {
            key: child.value
            for key, child in registry.family(
                "broker_leaf_selections_total"
            ).children()
        }
        assert scored == {("db",): 1}

    def test_pruned_leaves_still_fill_large_k(self):
        # k spans the whole federation: the pruned leaf's sources must
        # come back at the selector's sparse default, exactly as flat.
        root, db, med = self._topical_root()
        index = flat_index(
            {
                "DB-0": db.index.summary("DB-0"),
                "Med-0": med.index.summary("Med-0"),
            }
        )
        assert root.select(Cori(), ["databases"], 5) == Cori().select(
            ["databases"], index, 5
        )

    def test_route_depth_histogram_observes_descents(self, registry):
        root, _, _ = self._topical_root()
        root.select(Cori(), ["databases"], 1)  # descends 1 of 2
        root.select(BySize(), ["databases"], 1)  # not prunable: descends 2
        ((_, histogram),) = registry.family("broker_route_depth").children()
        assert histogram.count == 2
        assert histogram.sum == 3.0


class TestTopology:
    def test_duplicate_leaf_ids_rejected(self):
        with pytest.raises(ValueError):
            RootBroker([LeafBroker("same"), LeafBroker("same")])

    def test_deltas_route_by_the_ring(self):
        population = demo_population()
        root = populated(3, population)
        for source_id in population:
            owner = root.handle(root.ring.locate(source_id))
            assert source_id in owner.index

    def test_routing_table_covers_every_source(self):
        population = demo_population()
        root = populated(3, population)
        table = root.routing_table(sorted(population))
        assert sorted(s for owned in table.values() for s in owned) == sorted(
            population
        )

    def test_non_distributable_selector_rejected(self):
        root = populated(2, demo_population())
        with pytest.raises(ValueError, match="not distributable"):
            root.select(RandomSelector(seed=1), ["databases"], 1)


class TestNesting:
    def test_nested_roots_stay_exact(self):
        population = demo_population(n_sources=30, seed=9)
        index = flat_index(population)
        sub_a = build_hierarchy(2, leaf_prefix="a", broker_id="sub-a")
        sub_b = build_hierarchy(3, leaf_prefix="b", broker_id="sub-b")
        top = RootBroker([sub_a, sub_b])
        for source_id in sorted(population):
            top.apply_delta(source_id, population[source_id])
        for terms in (["databases"], ["medicine", "query"], ["absent"]):
            for k in (1, 4, 40):
                assert top.select(Cori(), terms, k) == Cori().select(terms, index, k)
        terms = ["databases", "networks"]
        ranking = top.top_candidates(VGlossSum(), terms, len(index))
        assert ranking == VGlossSum().rank(terms, index)
