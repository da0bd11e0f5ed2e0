"""Telemetry dashboard: a live federation seen through /metrics and explain().

A Zipf-skewed query replay runs against a three-vendor federation where
one source turns flaky mid-flight.  The process-wide metrics registry
records every layer — wire requests, cache tiers, engine evaluation,
pipeline phases — and the script scrapes its own published ``/metrics``
endpoint for the lines an operator watches.  Then one more search is
explained: per source what happened to it (the flaky one is by now held
down by the negative cache), and the span tree with each source's
server-side span stitched under the client span that called it.

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
from repro.corpus import build_workload, zipf_replay
from repro.observability import (
    MetricsRegistry,
    TraceCollector,
    get_registry,
    set_registry,
)
from repro.transport import StartsClient, publish_metrics
from repro.vendors import build_vendor_source

FLAKY = "Dash-Db"

INTERESTING = (
    "source_requests_total",
    "source_outcomes_total",
    "cache_negative_skips_total",
    "cache_reads_total",
    "metasearch_searches_total",
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
    previous = set_registry(MetricsRegistry())
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
        for query in replay:
            searcher.search(query.to_squery(max_documents=5), k_sources=3)

        text = StartsClient(internet).fetch_metrics(metrics_url)
        print(f"scraped {metrics_url}: "
              f"{len(text.splitlines())} lines; the interesting ones:")
        for line in text.splitlines():
            if line.startswith(INTERESTING) and not line.startswith("#"):
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
        set_registry(previous)
    assert get_registry() is previous


if __name__ == "__main__":
    main()
