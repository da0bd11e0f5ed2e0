"""The caching subsystem: repeat queries off the wire, dead hosts held back.

The same three-source federation is queried twice with caching on (the
default): the first round pays the full wire cost, the repeat is
served from the query-result cache without a single request — visible
in `explain()` as `result cache: hit`, its `cache` event and the
query-log record.
Then one host dies: after the first failed round the negative cache
skips the dead source outright instead of re-probing it every search.

Run:  python examples/cached_metasearch.py
"""

from repro import (
    FaultProfile,
    Metasearcher,
    Resource,
    SimulatedInternet,
    SQuery,
    StartsSource,
    parse_expression,
    publish_resource,
)
from repro.corpus import source1_documents, source2_documents
from repro.observability import get_query_log


def main() -> None:
    internet = SimulatedInternet(seed=17)
    resource = Resource(
        "Cached",
        [
            StartsSource("Steady", source1_documents(), base_url="http://steady.org/s"),
            StartsSource("Sturdy", source2_documents(), base_url="http://sturdy.org/s"),
            StartsSource("Shaky", source1_documents(), base_url="http://shaky.org/s"),
        ],
    )
    publish_resource(internet, resource, "http://cached.org")

    # Caching is on by default; cache_policy=CachePolicy.disabled() turns
    # it off, and assigning a QueryResultCache(ttl_ms=...) to
    # searcher.result_cache tunes it.
    searcher = Metasearcher(internet, ["http://cached.org/resource"])
    searcher.refresh()

    query = SQuery(
        ranking_expression=parse_expression(
            'list((body-of-text "distributed") (body-of-text "databases"))'
        ),
        max_number_documents=5,
    )

    print("=== Cold search (pays the wire) ===")
    cold = searcher.search(query, k_sources=3)
    cold_requests = internet.request_count()
    print(f"documents={len(cold.documents)} wire requests so far: {cold_requests}")

    print("\n=== Warm repeat (served from cache) ===")
    warm = searcher.search(query, k_sources=3)
    warm_record = get_query_log().records()[-1]
    print(f"cache_status={warm.cache_status!r}")
    print(f"new wire requests: {internet.request_count() - cold_requests}")
    print(warm.explain())

    print("\n=== Negative caching of a dead host ===")
    internet.set_fault_profile("shaky.org", FaultProfile.dead())
    probe = SQuery(
        ranking_expression=parse_expression('list((body-of-text "networks"))')
    )
    first = searcher.search(probe, k_sources=3)
    print(f"first round after the outage: failed={first.failed_sources()}")

    retry = SQuery(
        ranking_expression=parse_expression('list((body-of-text "protocols"))')
    )
    second = searcher.search(retry, k_sources=3)
    outcome = second.outcomes["Shaky"]
    print(f"next round: skipped={second.skipped_sources()}")
    print(f"  reason: {outcome.skip_reason}")
    print(f"  sources the cache is holding back: {searcher.negative_cache.down_sources()}")

    # One search's cache decision is its result's cache_status, one
    # `cache` event on its trace and the cache_hits of its query-log record.
    hit = warm.trace.find("cache").attributes
    print(
        f"\nwarm repeat: cache_status={warm.cache_status!r} "
        f"event={hit['status']} cost_saved={hit['saved_cost']:.1f} "
        f"record: outcome={warm_record.outcome!r} cache_hits={warm_record.cache_hits} "
        f"requests={warm_record.requests}"
    )


if __name__ == "__main__":
    main()
