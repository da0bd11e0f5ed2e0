"""Observability overhead on the hot paths: metrics, tracing, querylog.

The telemetry pitch is "always on": every ``SearchEngine.search`` call
times itself into the ``engine_query_eval_ms`` histogram and ticks the
postings/truncation counters; every wire request checks the ambient
trace context and every traced endpoint checks for a ``traceparent``
header; every ``Metasearcher.search`` emits one wide event into the
process query log.  This benchmark prices those claims — each
subsystem's hot path runs with the feature on and off in strictly
interleaved pairs, comparing per-operation medians so load drift and
GC spikes land on both sides instead of biasing one:

* metrics — the ranking workload under a live :class:`MetricsRegistry`
  vs the disabled registry (no-op instruments);
* trace machinery — *untraced* broker selections against endpoints
  published with a trace sink (header check per request) vs without;
* querylog — cache-off metasearch rounds with the process log enabled
  vs :meth:`QueryLog.disabled`.

Acceptance: each feature's throughput within 5% of its off switch.
(Opting a request *into* tracing prices the spans themselves; that
cost is reported as an informational column, not gated.)  Numbers land
in ``BENCH_metrics_overhead.json``; one stitched trace and the query
log from the timed rounds land beside it as NDJSON artifacts.
"""

import json
import pathlib
import random
import statistics
import time

from repro import Metasearcher, SQuery, parse_expression, quick_federation
from repro.broker import (
    LeafBroker,
    NetworkLeafHandle,
    RootBroker,
    publish_broker_leaf,
)
from repro.cache import CachePolicy
from repro.corpus import (
    CollectionSpec,
    SummaryPopulationSpec,
    generate_collection,
    generate_source_summaries,
)
from repro.engine import fields as F
from repro.engine.query import ListQuery, TermQuery
from repro.engine.search import SearchEngine
from repro.metasearch.selection import Cori
from repro.observability import (
    MetricsRegistry,
    QueryLog,
    TraceCollector,
    Tracer,
    get_query_log,
    get_registry,
    render_stitched_ndjson,
    set_query_log,
    set_registry,
)
from repro.transport import SimulatedInternet

RESULTS_DIR = pathlib.Path(__file__).parent / "results"

N_DOCS = 800
N_QUERIES = 24
MAX_OVERHEAD = 0.05
N_PAIRS = 120


def _build_engine() -> SearchEngine:
    spec = CollectionSpec(
        name="bench-metrics-overhead",
        topics={"databases": 0.6, "retrieval": 0.4},
        size=N_DOCS,
        seed=17,
    )
    engine = SearchEngine()
    for document in generate_collection(spec):
        engine.add(document)
    return engine


def _build_queries(engine: SearchEngine) -> list[ListQuery]:
    rng = random.Random(23)
    vocabulary = engine.index.vocabulary(F.BODY_OF_TEXT)
    queries = []
    for _ in range(N_QUERIES):
        terms = tuple(
            TermQuery(F.BODY_OF_TEXT, text, weight=rng.choice((1.0, 0.8, 0.5)))
            for text in rng.sample(vocabulary, rng.randint(2, 4))
        )
        queries.append(ListQuery(terms))
    return queries


def _metrics_overhead() -> dict:
    """Live registry vs disabled registry on the ranking hot path.

    Each pair times the *same* ranking query under both registries
    back to back, so the comparison is per-query identical work.
    """
    engine = _build_engine()
    queries = _build_queries(engine)
    live = MetricsRegistry()
    off = MetricsRegistry.disabled()

    def search(registry, index):
        set_registry(registry)
        engine.search(ranking_query=queries[index % len(queries)], top_k=20)

    for index in range(10):  # warm caches before either mode is timed
        search(off, index)
    off_s, on_s, overhead = _paired_medians(
        lambda index: search(off, index), lambda index: search(live, index)
    )
    return {
        "disabled_qps": round(1.0 / off_s, 1),
        "enabled_qps": round(1.0 / on_s, 1),
        "overhead_fraction": round(overhead, 4),
    }


def _network_root(trace_sink):
    """A three-leaf broker hierarchy behind (simulated) wire endpoints."""
    internet = SimulatedInternet(seed=3)
    handles = []
    for index in range(3):
        leaf = LeafBroker(f"bench-leaf-{index}")
        base = f"http://bench-{index}.example.org/broker"
        publish_broker_leaf(internet, leaf, base, trace_sink=trace_sink)
        handles.append(NetworkLeafHandle(internet, base, leaf.leaf_id))
    root = RootBroker(handles)
    summaries = generate_source_summaries(
        SummaryPopulationSpec(n_sources=48, topics_per_source=2, seed=31)
    )
    for source_id in sorted(summaries):
        root.apply_delta(source_id, summaries[source_id])
    return root


def _timed(thunk) -> float:
    started = time.perf_counter()
    thunk()
    return time.perf_counter() - started


def _paired_medians(run_off, run_on) -> tuple[float, float, float]:
    """Strictly interleaved A/B: per-mode medians plus the overhead.

    One off-sample then one on-sample per pair — the same operation on
    both sides — so load drift, thermal throttling and GC spikes land
    on both modes instead of biasing whichever block ran second.  The
    overhead is the median of the per-pair on/off time ratios, which
    cancels per-operation variation the way block averages cannot; the
    per-mode median times feed the qps columns.
    """
    off_times: list[float] = []
    on_times: list[float] = []
    for index in range(N_PAIRS):
        off_times.append(_timed(lambda: run_off(index)))
        on_times.append(_timed(lambda: run_on(index)))
    overhead = statistics.median(
        on / off for off, on in zip(off_times, on_times)
    ) - 1.0
    return statistics.median(off_times), statistics.median(on_times), overhead


def _tracing_overheads() -> dict:
    """Header-check machinery on untraced requests, plus the opt-in cost.

    The gated number compares untraced selections against endpoints
    published with vs without a trace sink — what every request pays so
    that a traced one *could* stitch.  The informational number prices
    actually opting in (client spans + server fragments).
    """
    collector = TraceCollector()
    bare_root = _network_root(trace_sink=None)
    sink_root = _network_root(trace_sink=collector)

    def select(root, tracer=None):
        root.select(Cori(), ["database", "medicine"], 3, tracer=tracer)

    for _ in range(10):  # warm both hierarchies before timing
        select(bare_root)
        select(sink_root)
    bare_s, sink_s, overhead = _paired_medians(
        lambda index: select(bare_root), lambda index: select(sink_root)
    )
    _, traced_s, opt_in = _paired_medians(
        lambda index: select(bare_root),
        lambda index: select(sink_root, tracer=Tracer()),
    )
    return {
        "untraced_no_sink_qps": round(1.0 / bare_s, 1),
        "untraced_sink_qps": round(1.0 / sink_s, 1),
        "overhead_fraction": round(overhead, 4),
        "opt_in_traced_qps": round(1.0 / traced_s, 1),
        "opt_in_overhead_fraction": round(opt_in, 4),
    }


def _write_trace_artifact() -> None:
    """One stitched cross-process trace, as the CI NDJSON artifact."""
    collector = TraceCollector()
    root = _network_root(trace_sink=collector)
    tracer = Tracer()
    root.select(Cori(), ["database", "medicine"], 3, tracer=tracer)
    (RESULTS_DIR / "BENCH_trace.ndjson").write_text(
        render_stitched_ndjson(tracer.trace(), collector.traces())
    )


def _search_queries() -> list[SQuery]:
    terms = ["database", "index", "retrieval", "network", "medicine", "query"]
    return [
        SQuery(
            ranking_expression=parse_expression(f'(body-of-text "{term}")'),
            max_number_documents=5,
        )
        for term in terms
    ]


def _querylog_overhead() -> dict:
    """Enabled vs disabled process query log on cache-off searches.

    Caching is off so every request prices the full wire round — the
    path whose per-search record is the log's steady-state cost.  The
    log accumulated over the enabled samples becomes the CI NDJSON
    artifact.
    """
    internet, resource_url = quick_federation(seed=31, docs_per_source=40)
    searcher = Metasearcher(
        internet, [resource_url], cache_policy=CachePolicy.disabled()
    )
    searcher.refresh()
    queries = _search_queries()
    off_log = QueryLog.disabled()
    on_log = QueryLog(slow_ms=50.0)

    def search(log, index):
        set_query_log(log)
        searcher.search(queries[index % len(queries)], k_sources=2)

    for index in range(10):
        search(off_log, index)
    off_s, on_s, overhead = _paired_medians(
        lambda index: search(off_log, index),
        lambda index: search(on_log, index),
    )
    on_log.write_ndjson(str(RESULTS_DIR / "BENCH_querylog.ndjson"))
    return {
        "disabled_qps": round(1.0 / off_s, 1),
        "enabled_qps": round(1.0 / on_s, 1),
        "overhead_fraction": round(overhead, 4),
    }


def test_bench_metrics_overhead(write_table):
    previous_registry = get_registry()
    previous_log = get_query_log()
    RESULTS_DIR.mkdir(exist_ok=True)
    try:
        metrics = _metrics_overhead()
        # Tracing and querylog A/Bs hold the registry constant (live,
        # the always-on configuration) so one variable moves at a time.
        set_registry(MetricsRegistry())
        tracing = _tracing_overheads()
        querylog = _querylog_overhead()
        _write_trace_artifact()
    finally:
        set_registry(previous_registry)
        set_query_log(previous_log)

    payload = {
        "benchmark": "metrics_overhead",
        "n_docs": N_DOCS,
        "n_queries": N_QUERIES,
        "n_pairs": N_PAIRS,
        "disabled_qps": metrics["disabled_qps"],
        "enabled_qps": metrics["enabled_qps"],
        "overhead_fraction": metrics["overhead_fraction"],
        "budget_fraction": MAX_OVERHEAD,
        "trace_machinery": tracing,
        "querylog": querylog,
    }
    path = RESULTS_DIR / "BENCH_metrics_overhead.json"
    path.write_text(json.dumps(payload, indent=2) + "\n")

    gated = {
        "metrics": metrics["overhead_fraction"],
        "trace machinery": tracing["overhead_fraction"],
        "querylog": querylog["overhead_fraction"],
    }
    write_table(
        "METRICS_overhead",
        [
            f"{N_PAIRS} interleaved on/off pairs per subsystem "
            "(per-operation medians)",
            "",
            f"metrics registry   off qps={metrics['disabled_qps']:.0f} "
            f"on qps={metrics['enabled_qps']:.0f} "
            f"overhead {metrics['overhead_fraction'] * 100.0:+.2f}%",
            f"trace machinery    off qps={tracing['untraced_no_sink_qps']:.0f} "
            f"on qps={tracing['untraced_sink_qps']:.0f} "
            f"overhead {tracing['overhead_fraction'] * 100.0:+.2f}%",
            f"querylog           off qps={querylog['disabled_qps']:.0f} "
            f"on qps={querylog['enabled_qps']:.0f} "
            f"overhead {querylog['overhead_fraction'] * 100.0:+.2f}%",
            f"(informational) opting a select into tracing costs "
            f"{tracing['opt_in_overhead_fraction'] * 100.0:+.1f}%",
            f"budget per gated row: {MAX_OVERHEAD * 100.0:.0f}%",
        ],
    )

    for name, overhead in gated.items():
        assert overhead < MAX_OVERHEAD, (
            f"{name} instrumentation costs {overhead * 100.0:.2f}% "
            f"of throughput (budget {MAX_OVERHEAD * 100.0:.0f}%)"
        )
