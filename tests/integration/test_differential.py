"""Differential tests: independent paths must agree exactly.

Transport must be invisible (wire results == direct results), repeated
construction must be bit-identical (determinism), and client-side
translation must predict server behaviour for whole workloads.
"""

import pytest

from repro import Metasearcher, SQuery, parse_expression, quick_federation
from repro.metasearch.translation import ClientTranslator
from repro.transport import StartsClient


@pytest.fixture(scope="module")
def world(session_small_federation):
    internet, resource_url, resource = session_small_federation
    searcher = Metasearcher(internet, [resource_url])
    searcher.refresh()
    return internet, resource, searcher


WORKLOAD = [
    'list((body-of-text "databases"))',
    'list((body-of-text "patient") (body-of-text "diagnosis"))',
    'list((body-of-text "routing") (body-of-text "congestion"))',
    'list((title stem "databases"))',
]


class TestTransportTransparency:
    @pytest.mark.parametrize("text", WORKLOAD)
    def test_wire_equals_direct(self, world, text):
        internet, resource, _ = world
        client = StartsClient(internet)
        for source_id in resource.source_ids():
            source = resource.source(source_id)
            query = SQuery(ranking_expression=parse_expression(text))
            over_wire = client.query(f"{source.base_url}/query", query)
            direct = source.search(query)
            assert over_wire == direct


class TestClientPredictsServer:
    @pytest.mark.parametrize("text", WORKLOAD)
    def test_translation_contract_holds(self, world, text):
        _, resource, _ = world
        translator = ClientTranslator()
        for source_id in resource.source_ids():
            source = resource.source(source_id)
            query = SQuery(ranking_expression=parse_expression(text))
            translated, _ = translator.translate(query, source.metadata())
            actual = source.search(query)
            assert actual.actual_ranking_expression == translated.ranking_expression


class TestConstructionDeterminism:
    def test_quick_federation_reproducible(self):
        results = []
        for _ in range(2):
            internet, resource_url = quick_federation(seed=19, docs_per_source=25)
            searcher = Metasearcher(internet, [resource_url])
            searcher.refresh()
            outcome = searcher.search(
                SQuery(
                    ranking_expression=parse_expression(
                        'list((body-of-text "databases"))'
                    )
                ),
                k_sources=2,
            )
            results.append(
                [(doc.linkage, round(doc.score, 12)) for doc in outcome.documents]
            )
        assert results[0] == results[1]

    def test_summaries_reproducible(self):
        blobs = []
        for _ in range(2):
            internet, resource_url = quick_federation(seed=19, docs_per_source=25)
            searcher = Metasearcher(internet, [resource_url])
            searcher.refresh()
            blobs.append(
                {
                    source_id: summary.to_soif().dump()
                    for source_id, summary in searcher.discovery.summaries().items()
                }
            )
        assert blobs[0] == blobs[1]
