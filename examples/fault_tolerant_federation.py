"""Fault-tolerant federation: partial results over a misbehaving world.

Four sources — two healthy, one dead, one that hangs — queried
concurrently under a per-source policy (500 ms deadline, two retries with
exponential backoff).  The search still returns merged results from the
survivors, and the trace shows exactly what every source cost.

Run:  python examples/fault_tolerant_federation.py
"""

from repro import (
    FaultProfile,
    HostProfile,
    Metasearcher,
    QueryPolicy,
    Resource,
    SimulatedInternet,
    SQuery,
    StartsSource,
    parse_expression,
    publish_resource,
)
from repro.corpus import source1_documents, source2_documents
from repro.federation import AsyncExecutor
from repro.metasearch import SelectAll


def main() -> None:
    internet = SimulatedInternet(seed=42)
    resource = Resource(
        "Troubled",
        [
            StartsSource("Steady", source1_documents(), base_url="http://steady.org/s"),
            StartsSource("Sturdy", source2_documents(), base_url="http://sturdy.org/s"),
            StartsSource("Dead", source1_documents(), base_url="http://dead.org/s"),
            StartsSource("Tarpit", source2_documents(), base_url="http://tarpit.org/s"),
        ],
    )
    publish_resource(
        internet,
        resource,
        "http://troubled.org",
        source_profiles={
            "Steady": HostProfile(latency_ms=20.0, jitter_ms=0.0),
            "Sturdy": HostProfile(latency_ms=30.0, jitter_ms=0.0),
            "Dead": HostProfile(latency_ms=20.0, jitter_ms=0.0, cost_per_query=5.0),
            "Tarpit": HostProfile(latency_ms=25.0, jitter_ms=0.0),
        },
    )

    searcher = Metasearcher(
        internet,
        ["http://troubled.org/resource"],
        executor=AsyncExecutor(),
        query_policy=QueryPolicy(timeout_ms=500.0, max_retries=2, backoff_base_ms=10.0),
    )
    searcher.refresh()

    # The outage begins after discovery: one host drops every request,
    # another accepts connections but never answers.
    internet.set_fault_profile("dead.org", FaultProfile.dead())
    internet.set_fault_profile("tarpit.org", FaultProfile.hangs(hang_ms=60_000.0))

    query = SQuery(
        ranking_expression=parse_expression(
            'list((body-of-text "distributed") (body-of-text "databases"))'
        ),
        max_number_documents=5,
    )
    result = searcher.search(query, k_sources=4, selector=SelectAll())

    print("Merged documents (survivors only):")
    for document in result.documents:
        print(f"  {document.score:8.4f}  [{document.source_id}]  {document.linkage}")

    print(f"\nOutcome counts: {result.outcome_counts()}")
    print(f"ok={result.ok_sources()} failed={result.failed_sources()}")

    print("\nWhat every source did and cost (explain):")
    print(result.explain())


if __name__ == "__main__":
    main()
