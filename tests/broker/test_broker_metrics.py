"""Broker metrics: Prometheus export and metrics-disabled neutrality."""

import pytest

from repro import BrokeredMetasearcher, SQuery, parse_expression, quick_federation
from repro.broker import LeafBroker, RootBroker
from repro.metasearch.selection import Cori
from repro.observability import (
    MetricsRegistry,
    get_registry,
    render_prometheus,
    set_registry,
)

from tests.broker.util import FaultyLeaf, demo_population, populated


def _search_through_a_dead_leaf():
    """One brokered search whose only leaf stopped answering."""
    internet, url = quick_federation(seed=11, docs_per_source=12)
    leaf = FaultyLeaf(LeafBroker("leaf-0"))
    searcher = BrokeredMetasearcher(internet, [url], broker=RootBroker([leaf]))
    searcher.refresh()
    leaf.fault = "dead"
    query = SQuery(ranking_expression=parse_expression('(body-of-text "databases")'))
    return searcher.search(query, k_sources=2)


@pytest.fixture
def registry():
    previous = get_registry()
    fresh = MetricsRegistry()
    set_registry(fresh)
    yield fresh
    set_registry(previous)


class TestPrometheusExport:
    def test_broker_families_render(self, registry):
        root = populated(3, demo_population())
        root.select(Cori(), ["databases"], 2)
        text = render_prometheus(registry)
        assert "# TYPE broker_leaf_selections_total counter" in text
        assert 'broker_leaf_selections_total{leaf="leaf-00"}' in text
        assert "# TYPE broker_route_depth histogram" in text
        assert 'broker_route_depth_bucket{le="16"' in text or "broker_route_depth_bucket" in text
        assert "broker_route_depth_count 1" in text

    def test_fallback_counter_renders(self, registry):
        assert _search_through_a_dead_leaf().documents
        assert "broker_fallbacks_total 1" in render_prometheus(registry)


class TestDisabledNeutrality:
    def test_disabled_registry_changes_nothing_but_the_export(self):
        population = demo_population()

        previous = get_registry()
        try:
            set_registry(MetricsRegistry())
            root = populated(3, population)
            enabled_result = root.select(Cori(), ["databases", "query"], 4)
            assert render_prometheus(get_registry()) != ""

            disabled = MetricsRegistry.disabled()
            set_registry(disabled)
            root = populated(3, population)
            disabled_result = root.select(Cori(), ["databases", "query"], 4)
            assert render_prometheus(disabled) == ""
        finally:
            set_registry(previous)

        assert disabled_result == enabled_result

    def test_disabled_registry_keeps_the_fallback_path_working(self):
        previous = get_registry()
        try:
            set_registry(MetricsRegistry.disabled())
            result = _search_through_a_dead_leaf()
        finally:
            set_registry(previous)
        assert result.documents
        assert "broker_fallback" in result.trace.find("select").attributes
