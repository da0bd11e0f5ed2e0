"""Telemetry dashboard: a live federation seen through its records and /metrics.

A Zipf-skewed query replay runs against a three-vendor federation where
one source turns flaky mid-flight.  What each search did — how it
ended, its wire requests and failures, its cache hit or negative skips,
each source's outcome — is on that search's own records: its query-log
record and its outcomes.  The script sums those, then scrapes its own
published ``/metrics`` endpoint for what has no per-search record (the
sources' engines).  Then one more search is explained: per source what
happened to it (the flaky one is by now held down by the negative
cache), and the span tree with each source's server-side span stitched
under the client span that called it.

Run:  python examples/telemetry_dashboard.py
"""

from repro import (
    CollectionSpec,
    FaultProfile,
    Metasearcher,
    Resource,
    SimulatedInternet,
    SQuery,
    generate_collection,
    parse_expression,
    publish_resource,
)
from collections import Counter

from repro.corpus import build_workload, zipf_replay
from repro.observability import (
    MetricsRegistry,
    QueryLog,
    TraceCollector,
    get_query_log,
    get_registry,
    set_query_log,
    set_registry,
)
from repro.transport import StartsClient, publish_metrics
from repro.vendors import build_vendor_source

FLAKY = "Dash-Db"

INTERESTING = (
    "engine_query_eval_ms_count",
    "engine_postings_walked_total",
    "engine_topk_truncations_total",
)


def build_federation(collector: TraceCollector):
    internet = SimulatedInternet(seed=9)
    resource = Resource("Dashboard")
    collections = {}
    plans = [
        (FLAKY, "AcmeSearch", {"databases": 1.0}),
        ("Dash-Net", "OkapiWorks", {"networking": 1.0}),
        ("Dash-Med", "InferNet", {"medicine": 1.0}),
    ]
    for index, (source_id, vendor, topics) in enumerate(plans):
        documents = generate_collection(
            CollectionSpec(name=source_id, topics=topics, size=40, seed=300 + index)
        )
        collections[source_id] = documents
        resource.add_source(build_vendor_source(vendor, source_id, documents))
    publish_resource(
        internet, resource, "http://dash.example.org", trace_sink=collector
    )
    return internet, "http://dash.example.org/resource", collections


def main() -> None:
    previous_registry, previous_log = get_registry(), get_query_log()
    set_registry(MetricsRegistry())
    log = set_query_log(QueryLog())
    try:
        collector = TraceCollector()
        internet, resource_url, collections = build_federation(collector)
        metrics_url = publish_metrics(internet, "http://metrics.example.org")
        searcher = Metasearcher(internet, [resource_url])
        searcher.refresh()

        # The trouble starts after discovery: one source begins dropping
        # every request.
        flaky_host = searcher.discovery.source(FLAKY).query_url.split("//")[-1]
        flaky_host = flaky_host.split("/")[0]
        internet.set_fault_profile(flaky_host, FaultProfile(failure_rate=1.0))

        workload = build_workload(collections, n_queries=12, seed=4)
        replay = zipf_replay(workload.queries, n_requests=40, skew=1.1, seed=5)
        print(f"replaying {len(replay)} requests over "
              f"{len(workload.queries)} distinct queries "
              f"(zipf skew=1.1, {FLAKY} dropping every request)\n")
        per_source: dict[str, Counter] = {}
        for query in replay:
            result = searcher.search(query.to_squery(max_documents=5), k_sources=3)
            if result.cache_status == "hit":
                continue  # its outcomes are the filling round's
            for source_id, outcome in result.outcomes.items():
                per_source.setdefault(source_id, Counter())[outcome.status.value] += 1

        records = log.records()
        print(f"the replay's {len(records)} query-log records:")
        print(f"  searches by outcome: {dict(Counter(r.outcome for r in records))}")
        print(f"  wire requests={sum(r.requests for r in records)} "
              f"failures={sum(r.failures for r in records)} "
              f"negative_skips={sum(r.negative_skips for r in records)} "
              f"cache_hits={sum(r.cache_hits for r in records)}")
        print("  per source, from the outcomes of the searches that went on the wire:")
        for source_id, statuses in sorted(per_source.items()):
            print(f"    {source_id}: {dict(sorted(statuses.items()))}")

        text = StartsClient(internet).fetch_metrics(metrics_url)
        print(f"\nscraped {metrics_url}: "
              f"{len(text.splitlines())} lines, the sources' engines; a few:")
        for line in text.splitlines():
            if line.startswith(INTERESTING):
                print(f"  {line}")

        print("\none more search, explained:")
        expression = parse_expression(
            'list((body-of-text "databases") (body-of-text "routing"))'
        )
        result = searcher.search(
            SQuery(ranking_expression=expression, max_number_documents=5),
            k_sources=3,
        )
        print(result.explain(collector.traces()))
    finally:
        set_registry(previous_registry)
        set_query_log(previous_log)
    assert get_registry() is previous_registry


if __name__ == "__main__":
    main()
