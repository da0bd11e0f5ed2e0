"""The metasearcher facade, end to end over the wire."""

import pytest

from repro.metasearch import (
    Metasearcher,
    NormalizedScoreMerge,
    RandomSelector,
    SelectAll,
)
from repro.corpus import CollectionSpec, generate_collection
from repro.resource import Resource
from repro.starts import SQuery, parse_expression
from repro.starts.errors import ProtocolError
from repro.transport import SimulatedInternet
from repro.transport.server import (
    publish_endpoints,
    resource_endpoints,
    source_endpoints,
)
from repro.vendors import build_vendor_source


@pytest.fixture
def searcher(small_federation):
    internet, resource_url, _ = small_federation
    searcher = Metasearcher(internet, [resource_url])
    searcher.refresh()
    return searcher


def db_query(**overrides):
    defaults = dict(
        ranking_expression=parse_expression(
            'list((body-of-text "databases") (body-of-text "query"))'
        ),
    )
    defaults.update(overrides)
    return SQuery(**defaults)


class TestSearchPipeline:
    def test_selects_topical_source(self, searcher):
        result = searcher.search(db_query(), k_sources=1)
        assert result.selected_sources == ["Fed-DB"]

    def test_merged_documents_returned(self, searcher):
        result = searcher.search(db_query(), k_sources=2)
        assert result.documents
        scores = [d.score for d in result.documents]
        assert scores == sorted(scores, reverse=True)

    def test_max_documents_respected(self, searcher):
        result = searcher.search(db_query(max_number_documents=3), k_sources=3)
        assert len(result.documents) <= 3

    def test_translation_reports_per_source(self, searcher):
        result = searcher.search(db_query(), k_sources=3)
        assert set(result.translation_reports) == set(result.selected_sources)

    def test_per_source_results_exposed(self, searcher):
        result = searcher.search(db_query(), k_sources=2)
        for source_id, results in result.per_source_results.items():
            assert results.sources == (source_id,)

    def test_requires_refresh_first(self, small_federation):
        internet, resource_url, _ = small_federation
        fresh = Metasearcher(internet, [resource_url])
        with pytest.raises(ProtocolError):
            fresh.search(db_query())

    def test_invalid_query_rejected(self, searcher):
        with pytest.raises(ProtocolError):
            searcher.search(SQuery())


def _searcher_without_summaries():
    """Four sources whose summary endpoints are dark: nothing to score."""
    internet = SimulatedInternet(seed=5)
    resource = Resource("Dark")
    for index, vendor in enumerate(["AcmeSearch", "OkapiWorks", "InferNet", "ZeusFind"]):
        source_id = f"Exp-{index:02d}"
        spec = CollectionSpec(source_id, {"databases": 1.0}, size=10, seed=index)
        resource.add_source(
            build_vendor_source(vendor, source_id, generate_collection(spec))
        )
    publish_endpoints(internet, "http://dark.example.org", resource_endpoints(resource))
    for source_id in resource.source_ids():
        source = resource.source(source_id)
        endpoints = source_endpoints(source, source.base_url, resource)
        del endpoints["GET", "cont_sum.txt"]
        publish_endpoints(internet, source.base_url, endpoints)
    searcher = Metasearcher(internet, ["http://dark.example.org/resource"])
    searcher.refresh()
    assert not searcher.discovery.summary_index().source_count
    return searcher


class TestSourceCount:
    """A negative ``k_sources`` is rejected whether or not a summary is
    indexed, by ``search`` and ``search_stream`` alike."""

    @pytest.fixture(params=["summaries indexed", "no summary indexed"])
    def either_branch(self, request, searcher):
        if request.param == "summaries indexed":
            return searcher
        return _searcher_without_summaries()

    @pytest.mark.parametrize("call", ["search", "search_stream"])
    def test_a_negative_count_is_rejected(self, either_branch, call):
        with pytest.raises(ValueError, match="k_sources must be >= 0"):
            if call == "search":
                either_branch.search(db_query(), k_sources=-1)
            else:
                next(either_branch.search_stream(db_query(), k_sources=-1))


class TestStrategyOverrides:
    def test_selector_override(self, searcher):
        result = searcher.search(db_query(), k_sources=3, selector=SelectAll())
        assert len(result.selected_sources) == 3

    def test_merger_override(self, searcher):
        result = searcher.search(
            db_query(), k_sources=2, merger=NormalizedScoreMerge()
        )
        for document in result.documents:
            assert 0.0 <= document.score <= 1.0

    def test_random_selector_still_works_end_to_end(self, searcher):
        result = searcher.search(db_query(), k_sources=1, selector=RandomSelector(3))
        assert len(result.selected_sources) == 1


class TestResultView:
    def test_linkages_and_top(self, searcher):
        result = searcher.search(db_query(), k_sources=2)
        assert result.linkages() == [d.linkage for d in result.documents]
        assert result.top(2) == result.documents[:2]


class TestNetworkEconomy:
    def test_skips_sources_where_nothing_survives(self, small_federation):
        """A Boolean-only source is never queried with a ranking-only
        query — the client knows from metadata it would be pointless."""
        from repro.corpus import source1_documents
        from repro.resource import Resource
        from repro.transport import SimulatedInternet, publish_resource
        from repro.vendors import build_vendor_source

        internet = SimulatedInternet()
        resource = Resource("R")
        resource.add_source(
            build_vendor_source("GrepMaster", "OnlyGrep", source1_documents())
        )
        publish_resource(internet, resource, "http://only.example.org")
        searcher = Metasearcher(internet, ["http://only.example.org/resource"])
        searcher.refresh()
        internet.reset_log()

        result = searcher.search(db_query(), k_sources=1)
        assert result.per_source_results == {}
        assert internet.request_count() == 0  # no query round trip at all
