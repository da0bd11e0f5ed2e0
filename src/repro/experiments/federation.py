"""The standard experiment federation.

Every experiment in EXPERIMENTS.md runs over the same reproducible
world: N topically focused collections, assigned round-robin to the
heterogeneous vendor engines, published on one resource over a
simulated internet with varied host profiles (one slow host, one
charging host — §3.3's motivation for source selection).
"""

from __future__ import annotations

from dataclasses import dataclass, field as dataclass_field

from repro.corpus.generator import CollectionSpec, generate_collection
from repro.corpus.workload import Workload, build_workload
from repro.engine.documents import Document
from repro.resource import Resource
from repro.source.source import StartsSource
from repro.transport import (
    FaultProfile,
    HostProfile,
    SimulatedInternet,
    publish_resource,
)
from repro.vendors import build_vendor_source

__all__ = ["FederationSpec", "Federation", "build_federation"]

#: Topic mixtures for up to 20 sources; entries cycle when more are asked.
_TOPIC_PLANS = [
    {"databases": 0.9, "retrieval": 0.1},
    {"retrieval": 0.9, "databases": 0.1},
    {"networking": 1.0},
    {"medicine": 1.0},
    {"astronomy": 1.0},
    {"law": 1.0},
    {"cooking": 1.0},
    {"databases": 0.5, "networking": 0.5},
    {"medicine": 0.5, "law": 0.5},
    {"retrieval": 0.5, "astronomy": 0.5},
]

#: Vendors cycle over the sources, so every federation is heterogeneous.
_VENDOR_CYCLE = [
    "AcmeSearch",
    "OkapiWorks",
    "InferNet",
    "ZeusFind",
    "MundoDocs",
]


@dataclass(frozen=True)
class FederationSpec:
    """Parameters of an experiment federation."""

    n_sources: int = 8
    docs_per_source: int = 80
    n_queries: int = 50
    terms_per_query: tuple[int, int] = (1, 2)
    seed: int = 0
    include_boolean_only_source: bool = False
    slow_source_index: int | None = 2
    charging_source_index: int | None = 3
    #: Index of a source whose first two requests fail before it
    #: recovers (None disables; see FaultProfile.flaky).
    flaky_source_index: int | None = None
    #: Index of a source whose host is dead — every request fails.
    dead_source_index: int | None = None


@dataclass
class Federation:
    """A built federation: network, resource, sources, and workload."""

    internet: SimulatedInternet
    resource: Resource
    resource_url: str
    sources: dict[str, StartsSource]
    collections: dict[str, list[Document]]
    workload: Workload
    costs: dict[str, float] = dataclass_field(default_factory=dict)

    def source_ids(self) -> list[str]:
        return sorted(self.sources)


def build_federation(spec: FederationSpec = FederationSpec()) -> Federation:
    """Build and publish the standard experiment federation."""
    internet = SimulatedInternet(seed=spec.seed)
    resource = Resource("ExperimentFederation")
    sources: dict[str, StartsSource] = {}
    collections: dict[str, list[Document]] = {}
    profiles: dict[str, HostProfile] = {}
    faults: dict[str, FaultProfile] = {}
    costs: dict[str, float] = {}

    for index in range(spec.n_sources):
        source_id = f"Exp-{index:02d}"
        topics = _TOPIC_PLANS[index % len(_TOPIC_PLANS)]
        vendor = _VENDOR_CYCLE[index % len(_VENDOR_CYCLE)]
        if spec.include_boolean_only_source and index == spec.n_sources - 1:
            vendor = "GrepMaster"
        documents = generate_collection(
            CollectionSpec(
                name=source_id,
                topics=topics,
                size=spec.docs_per_source,
                seed=spec.seed * 1000 + index,
            )
        )
        source = build_vendor_source(vendor, source_id, documents)
        resource.add_source(source)
        sources[source_id] = source
        collections[source_id] = documents

        profile = HostProfile()
        if index == spec.slow_source_index:
            profile = HostProfile(latency_ms=400.0, jitter_ms=20.0)
        if index == spec.charging_source_index:
            profile = HostProfile(cost_per_query=5.0)
            costs[source_id] = 5.0
        profiles[source_id] = profile
        if index == spec.flaky_source_index:
            faults[source_id] = FaultProfile.flaky(2)
        if index == spec.dead_source_index:
            faults[source_id] = FaultProfile.dead()

    resource_url = "http://experiments.example.org"
    publish_resource(
        internet,
        resource,
        resource_url,
        source_profiles=profiles,
        source_faults=faults or None,
    )

    workload = build_workload(
        collections,
        n_queries=spec.n_queries,
        terms_per_query=spec.terms_per_query,
        seed=spec.seed + 7,
    )
    return Federation(
        internet=internet,
        resource=resource,
        resource_url=f"{resource_url}/resource",
        sources=sources,
        collections=collections,
        workload=workload,
        costs=costs,
    )
