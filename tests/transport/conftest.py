"""The paper's resource published on either mount, for every suite here."""

from dataclasses import dataclass

import pytest

from repro.observability import TraceCollector
from repro.resource import Resource
from repro.transport import (
    HttpTransport,
    SimulatedInternet,
    StartsClient,
    StartsHttpServer,
    Transport,
    publish_resource,
    publish_source,
)


@dataclass
class Mounted:
    """The paper's two-source resource, published on one kind of mount."""

    transport: Transport
    resource: Resource
    resource_url: str
    source_bases: dict[str, str]
    collector: TraceCollector

    @property
    def client(self) -> StartsClient:
        return StartsClient(self.transport)

    def url(self, source_id: str, endpoint: str) -> str:
        return f"{self.source_bases[source_id]}/{endpoint}"


@pytest.fixture(params=["simulated", "socket"])
def mounted(request, paper_resource):
    collector = TraceCollector()
    source_ids = paper_resource.source_ids()
    if request.param == "simulated":
        net = SimulatedInternet(seed=3)
        url = publish_resource(net, paper_resource, "http://stanford.example.org")
        for source_id in source_ids:  # again, now with the sink
            source = paper_resource.source(source_id)
            publish_source(net, source, resource=paper_resource, trace_sink=collector)
        bases = {
            source_id: paper_resource.source(source_id).base_url
            for source_id in source_ids
        }
        yield Mounted(net, paper_resource, url, bases, collector)
    else:
        with StartsHttpServer(paper_resource, trace_sink=collector) as server:
            bases = {
                source_id: f"{server.base_url}/{source_id}" for source_id in source_ids
            }
            yield Mounted(
                HttpTransport(), paper_resource, server.resource_url(), bases, collector
            )
