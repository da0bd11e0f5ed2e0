"""Telemetry dashboard: a live federation seen through /metrics.

A Zipf-skewed query replay runs against a three-vendor federation where
one source turns flaky mid-flight.  The process-wide metrics registry
records every layer — wire requests, cache tiers, engine evaluation,
pipeline phases — and the health scorer folds the flaky source's track
record into a score that hedges it, deprioritizes it, and extends its
negative-cache hold.  An :class:`SloMonitor` snapshots the same
registry after every replay round and turns the raw counters into the
numbers an on-call reads first: per-objective compliance and how much
error budget is left.  Finally a broker hierarchy published over the
same simulated internet serves one traced source selection, and the
server-side span fragments are stitched back under the client's trace
id — the single cross-process tree an operator would pull up to
explain a slow consultation.  At the end the script scrapes its own
published ``/metrics`` endpoint and prints the per-source health
table: the dashboard a metasearch operator would actually watch.

Run:  python examples/telemetry_dashboard.py
"""

from repro import (
    CollectionSpec,
    FaultProfile,
    Metasearcher,
    Resource,
    SimulatedInternet,
    generate_collection,
    publish_resource,
)
from repro.broker import (
    LeafBroker,
    NetworkLeafHandle,
    RootBroker,
    publish_broker_leaf,
)
from repro.cache import CachePolicy
from repro.corpus import build_workload, zipf_replay
from repro.metasearch.selection import Cori
from repro.observability import (
    MetricsRegistry,
    SloMonitor,
    SourceHealth,
    TraceCollector,
    Tracer,
    get_registry,
    set_registry,
    stitch_traces,
)
from repro.transport import StartsClient, publish_metrics
from repro.vendors import build_vendor_source

FLAKY = "Dash-Db"

INTERESTING = (
    "source_requests_total",
    "source_hedges_total",
    "source_health_score",
    "negative_cache_ttl_ms",
    "cache_reads_total",
    "metasearch_searches_total",
    "slo_error_budget_remaining",
)


def build_federation():
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
    publish_resource(internet, resource, "http://dash.example.org")
    return internet, "http://dash.example.org/resource", collections


def print_stitched_trace(internet, summaries):
    """One traced consultation of a network broker root, stitched."""
    collector = TraceCollector()
    handles = []
    for index in range(2):
        leaf = LeafBroker(f"dash-leaf-{index}")
        base = f"http://broker-{index}.example.org/broker"
        publish_broker_leaf(internet, leaf, base, trace_sink=collector)
        handles.append(NetworkLeafHandle(internet, base, leaf.leaf_id))
    root = RootBroker(handles)
    for source_id in sorted(summaries):
        root.apply_delta(source_id, summaries[source_id])

    tracer = Tracer()
    chosen = root.select(Cori(), ["databases", "medicine"], 2, tracer=tracer)
    rows = [
        row
        for row in stitch_traces(tracer.trace(), collector.traces())
        if row["kind"] == "span"
    ]
    print(f"\nstitched cross-process trace {tracer.trace_id} "
          f"(selected {', '.join(chosen)}):")
    children = {}
    for row in rows:
        children.setdefault(row["parent_id"], []).append(row)
    known = {row["span_id"] for row in rows}

    def show(row, depth):
        where = "leaf server" if row["name"].startswith("leaf:") else "client"
        print(f"  {'  ' * depth}{row['name']:<{30 - 2 * depth}} "
              f"{row['duration_ms']:7.2f} ms  [{where}]")
        for child in children.get(row["span_id"], []):
            show(child, depth + 1)

    for row in rows:
        if row["parent_id"] is None or row["parent_id"] not in known:
            show(row, 0)


def main() -> None:
    previous = set_registry(MetricsRegistry())
    try:
        internet, resource_url, collections = build_federation()
        metrics_url = publish_metrics(internet, "http://metrics.example.org")

        health = SourceHealth()
        searcher = Metasearcher(
            internet,
            [resource_url],
            health=health,
            cache_policy=CachePolicy(negative_failure_threshold=3),
        )
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
        monitor = SloMonitor()
        monitor.snapshot()
        for query in replay:
            searcher.search(query.to_squery(max_documents=5), k_sources=3)
            monitor.snapshot()
        monitor.export_gauges()

        print("per-source health (SourceHealth.snapshot):")
        print(f"  {'source':<10} {'score':>6} {'samples':>8} "
              f"{'err%':>6} {'tmo%':>6} {'ewma ms':>8}")
        for source_id, snap in health.snapshot().items():
            flag = "  <- unhealthy" if health.is_unhealthy(source_id) else ""
            print(f"  {source_id:<10} {snap.score:6.2f} {snap.samples:8d} "
                  f"{snap.error_rate * 100:6.1f} {snap.timeout_rate * 100:6.1f} "
                  f"{snap.latency_ewma_ms:8.1f}{flag}")

        print("\nerror budgets (SloMonitor.describe):")
        for line in monitor.describe().splitlines():
            print(f"  {line}")

        print_stitched_trace(internet, searcher.discovery.summaries())

        text = StartsClient(internet).fetch_metrics(metrics_url)
        print(f"\nscraped {metrics_url}: "
              f"{len(text.splitlines())} lines; the interesting ones:")
        for line in text.splitlines():
            if line.startswith(INTERESTING) and not line.startswith("#"):
                print(f"  {line}")
    finally:
        set_registry(previous)
    assert get_registry() is previous


if __name__ == "__main__":
    main()
