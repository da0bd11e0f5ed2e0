"""STARTS over real HTTP: sources on localhost sockets.

Everything else in the examples runs over the simulated internet; this
one starts an actual HTTP server (stdlib, threading) serving two STARTS
sources — the same endpoint tables ``publish_resource`` mounts on the
simulated internet — then runs the whole metasearch pipeline against it
with measured wall-clock latencies, the asyncio executor overlapping the
socket waits.

Run:  python examples/http_federation.py
"""

from repro.corpus import source1_documents, source2_documents
from repro.federation import AsyncExecutor
from repro.metasearch import Metasearcher
from repro.resource import Resource
from repro.source import StartsSource
from repro.starts import SQuery, parse_expression
from repro.transport import HttpTransport, StartsHttpServer


def main() -> None:
    resource = Resource(
        "Stanford",
        [
            StartsSource("Source-1", source1_documents()),
            StartsSource("Source-2", source2_documents()),
        ],
    )
    with StartsHttpServer(resource) as server:
        print(f"serving STARTS at {server.base_url}")
        print(f"  resource blob: {server.resource_url()}")
        print(f"  query Source-1: {server.source_query_url('Source-1')}\n")

        transport = HttpTransport()
        searcher = Metasearcher(
            transport, [server.resource_url()], executor=AsyncExecutor()
        )
        for known in searcher.refresh():
            print(
                f"harvested {known.source_id}: {known.num_docs} docs, "
                f"algorithm {known.metadata.ranking_algorithm_id}"
            )

        query = SQuery(
            ranking_expression=parse_expression(
                'list((body-of-text "distributed") (body-of-text "databases"))'
            ),
            max_number_documents=5,
        )
        result = searcher.search(query, k_sources=2)
        print(f"\nselected: {', '.join(result.selected_sources)}")
        for document in result.documents:
            print(f"  {document.score:8.4f}  [{document.source_id}]  {document.linkage}")
        print(
            f"\n{transport.request_count()} HTTP requests, "
            f"{transport.total_latency_ms():.1f} ms total wall latency "
            f"({result.query_latency_parallel_ms:.1f} ms parallel query round)"
        )


if __name__ == "__main__":
    main()
