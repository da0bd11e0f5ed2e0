"""Metasearch across several independent resources."""

import pytest

from repro.corpus import CollectionSpec, generate_collection
from repro.metasearch import Metasearcher
from repro.resource import Resource
from repro.starts import SQuery, parse_expression
from repro.transport import SimulatedInternet, publish_resource
from repro.vendors import build_vendor_source


@pytest.fixture(scope="module")
def two_resources():
    internet = SimulatedInternet(seed=5)

    campus = Resource("Campus")
    campus.add_source(
        build_vendor_source(
            "AcmeSearch",
            "Campus-DB",
            generate_collection(
                CollectionSpec(name="Campus-DB", topics={"databases": 1.0}, size=30, seed=1)
            ),
        )
    )
    publish_resource(internet, campus, "http://campus.example.org")

    commercial = Resource("Commercial")
    commercial.add_source(
        build_vendor_source(
            "OkapiWorks",
            "Dialog-Med",
            generate_collection(
                CollectionSpec(name="Dialog-Med", topics={"medicine": 1.0}, size=30, seed=2)
            ),
        )
    )
    commercial.add_source(
        build_vendor_source(
            "InferNet",
            "Dialog-Law",
            generate_collection(
                CollectionSpec(name="Dialog-Law", topics={"law": 1.0}, size=30, seed=3)
            ),
        )
    )
    publish_resource(internet, commercial, "http://dialog.example.org")

    return internet, [
        "http://campus.example.org/resource",
        "http://dialog.example.org/resource",
    ]


class TestMultiResourceDiscovery:
    def test_all_sources_from_all_resources(self, two_resources):
        internet, urls = two_resources
        searcher = Metasearcher(internet, urls)
        known = searcher.refresh()
        assert sorted(k.source_id for k in known) == [
            "Campus-DB",
            "Dialog-Law",
            "Dialog-Med",
        ]

    def test_resource_attribution_tracked(self, two_resources):
        internet, urls = two_resources
        searcher = Metasearcher(internet, urls)
        searcher.refresh()
        assert searcher.discovery.source("Campus-DB").resource_url == urls[0]
        assert searcher.discovery.source("Dialog-Med").resource_url == urls[1]

    def test_add_resource_later(self, two_resources):
        internet, urls = two_resources
        searcher = Metasearcher(internet, urls[:1])
        searcher.refresh()
        assert len(searcher.discovery.known_sources()) == 1
        searcher.resource_urls.append(urls[1])
        searcher.refresh()
        assert len(searcher.discovery.known_sources()) == 3


class TestCrossResourceSelection:
    def test_selection_spans_resources(self, two_resources):
        internet, urls = two_resources
        searcher = Metasearcher(internet, urls)
        searcher.refresh()

        medical = SQuery(
            ranking_expression=parse_expression(
                'list((body-of-text "patient") (body-of-text "diagnosis"))'
            )
        )
        result = searcher.search(medical, k_sources=1)
        assert result.selected_sources == ["Dialog-Med"]

        database = SQuery(
            ranking_expression=parse_expression('list((body-of-text "databases"))')
        )
        result = searcher.search(database, k_sources=1)
        assert result.selected_sources == ["Campus-DB"]

    def test_merging_spans_resources(self, two_resources):
        internet, urls = two_resources
        searcher = Metasearcher(internet, urls)
        searcher.refresh()
        # "analysis" is a general word present in every collection.
        query = SQuery(
            ranking_expression=parse_expression('list((body-of-text "analysis"))'),
            max_number_documents=30,
        )
        result = searcher.search(query, k_sources=3)
        sources_seen = {doc.source_id for doc in result.documents}
        assert len(sources_seen) >= 2
