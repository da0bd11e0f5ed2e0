"""Shared fixtures: the paper's canned sources and a small federation."""

from __future__ import annotations

import pytest
from hypothesis import settings

from repro.corpus import (
    CollectionSpec,
    generate_collection,
    source1_documents,
    source2_documents,
)
from repro.resource import Resource
from repro.source import StartsSource
from repro.starts import SQuery, parse_expression
from repro.transport import SimulatedInternet, publish_resource
from repro.vendors import build_vendor_source

# Tier-1 runs the same examples every time, so "no worse than the seed"
# compares like with like; looking for new ones is the job of
# ``--hypothesis-profile=ci`` (the fuzz steps of the CI workflow): also
# repeatable, and five times as many.  Tests that pin their own
# ``max_examples`` keep it.
settings.register_profile("tier1", derandomize=True)
settings.register_profile("ci", derandomize=True, max_examples=500, deadline=None)
settings.load_profile("tier1")


@pytest.fixture
def fresh_registry():
    """A private metrics registry swapped in for the test's duration."""
    from repro.observability import MetricsRegistry, get_registry, set_registry

    previous = get_registry()
    registry = set_registry(MetricsRegistry())
    yield registry
    set_registry(previous)


@pytest.fixture
def source1() -> StartsSource:
    """Source-1 from the paper's examples (Ullman document et al.)."""
    return StartsSource("Source-1", source1_documents())


@pytest.fixture
def source2() -> StartsSource:
    """Source-2 from the paper's examples (Lagunita report et al.)."""
    return StartsSource("Source-2", source2_documents())


@pytest.fixture
def paper_resource(source1: StartsSource, source2: StartsSource) -> Resource:
    """The two-source resource of Figure 1."""
    return Resource("Stanford", [source1, source2])


@pytest.fixture
def example6_query() -> SQuery:
    """The query of the paper's Example 6."""
    return SQuery(
        filter_expression=parse_expression(
            '((author "Ullman") and (title stem "databases"))'
        ),
        ranking_expression=parse_expression(
            'list((body-of-text "distributed") (body-of-text "databases"))'
        ),
        drop_stop_words=True,
        min_document_score=0.5,
        max_number_documents=10,
        answer_fields=("title", "author"),
    )


@pytest.fixture(scope="session")
def small_federation():
    """A published three-vendor federation over topical collections."""
    internet = SimulatedInternet(seed=11)
    resource = Resource("TestFederation")
    plans = [
        ("Fed-DB", "AcmeSearch", {"databases": 1.0}),
        ("Fed-Net", "OkapiWorks", {"networking": 1.0}),
        ("Fed-Med", "InferNet", {"medicine": 1.0}),
    ]
    for index, (source_id, vendor, topics) in enumerate(plans):
        documents = generate_collection(
            CollectionSpec(name=source_id, topics=topics, size=40, seed=100 + index)
        )
        resource.add_source(build_vendor_source(vendor, source_id, documents))
    url = "http://fed.example.org"
    publish_resource(internet, resource, url)
    return internet, f"{url}/resource", resource
