"""Transport: SOIF over a simulated internet (latency/cost accounting) or sockets."""

from repro.transport.client import StartsClient
from repro.transport.filestore import (
    export_resource,
    export_source_blobs,
    register_file_url,
)
from repro.transport.http import HttpTransport, StartsHttpServer
from repro.transport.network import (
    AccessRecord,
    FaultProfile,
    HostProfile,
    SimulatedInternet,
    Transport,
    TransportError,
    TransportTimeout,
)
from repro.transport.server import (
    publish_metrics,
    publish_resource,
    publish_source,
)

__all__ = [
    "StartsClient",
    "export_resource",
    "export_source_blobs",
    "register_file_url",
    "HttpTransport",
    "StartsHttpServer",
    "AccessRecord",
    "FaultProfile",
    "HostProfile",
    "SimulatedInternet",
    "Transport",
    "TransportError",
    "TransportTimeout",
    "publish_metrics",
    "publish_resource",
    "publish_source",
]
