"""STARTS: Stanford Protocol Proposal for Internet Retrieval and Search.

A complete, from-scratch Python reproduction of the SIGMOD 1997
experience paper by Gravano, Chang, García-Molina and Paepcke.  The
package layers:

* :mod:`repro.text` / :mod:`repro.engine` — the text-analysis and
  search-engine substrates a source is built on;
* :mod:`repro.starts` — the protocol itself: query language, SOIF
  encoding, results, metadata;
* :mod:`repro.source` / :mod:`repro.resource` — the server side;
* :mod:`repro.vendors` — six heterogeneous simulated engine vendors;
* :mod:`repro.transport` — SOIF over a simulated internet (latency,
  cost and deterministic fault injection);
* :mod:`repro.federation` — the query-round runtime: serial/asyncio
  executors, per-source policies (deadlines, retries, hedging) and
  partial-result outcomes;
* :mod:`repro.observability` — spans and per-source counters threaded
  through every search, a process-wide metrics registry (Prometheus
  text), the per-search query log, and ``MetasearchResult.explain()``
  reading all three;
* :mod:`repro.cache` — what the client remembers between queries: a
  result cache (canonical keys; an expired entry is a miss), the list
  of unreachable sources, the staleness rule for MBasic-1 dates;
* :mod:`repro.metasearch` — the client: source selection, query
  translation, rank merging;
* :mod:`repro.corpus` — reproducible synthetic collections and query
  workloads with a relevance oracle.

Quickstart::

    from repro import quick_federation, Metasearcher, SQuery, parse_expression

    internet, resource_url = quick_federation(seed=7)
    searcher = Metasearcher(internet, [resource_url])
    searcher.refresh()
    result = searcher.search(
        SQuery(ranking_expression=parse_expression(
            'list((body-of-text "distributed") (body-of-text "databases"))'
        ))
    )
    for doc in result.top(5):
        print(doc.score, doc.linkage)
"""

from repro.cache import CachePolicy
from repro.conformance import ConformanceReport, check_source
from repro.corpus import CollectionSpec, build_workload, generate_collection
from repro.engine import make_snippet
from repro.federation import (
    OutcomeStatus,
    QueryPolicy,
    SerialExecutor,
    SourceOutcome,
)
from repro.metasearch import Metasearcher, MetasearchResult
from repro.observability import (
    MetricsRegistry,
    Tracer,
    get_registry,
    render_prometheus,
    set_registry,
)
from repro.resource import Resource
from repro.source import SourceCapabilities, StartsSource
from repro.starts import (
    LString,
    SQuery,
    SQRDocument,
    SQResults,
    STerm,
    parse_expression,
)
from repro.transport import (
    FaultProfile,
    HostProfile,
    SimulatedInternet,
    TransportTimeout,
    publish_resource,
)
from repro.vendors import build_vendor_source, vendor_names

__version__ = "1.0.0"

__all__ = [
    "CachePolicy",
    "ConformanceReport",
    "check_source",
    "make_snippet",
    "CollectionSpec",
    "build_workload",
    "generate_collection",
    "OutcomeStatus",
    "QueryPolicy",
    "SerialExecutor",
    "SourceOutcome",
    "Metasearcher",
    "MetasearchResult",
    "MetricsRegistry",
    "Tracer",
    "get_registry",
    "render_prometheus",
    "set_registry",
    "Resource",
    "SourceCapabilities",
    "StartsSource",
    "LString",
    "SQuery",
    "SQRDocument",
    "SQResults",
    "STerm",
    "parse_expression",
    "FaultProfile",
    "HostProfile",
    "SimulatedInternet",
    "TransportTimeout",
    "publish_resource",
    "build_vendor_source",
    "vendor_names",
    "quick_federation",
    "__version__",
]

#: Topic mixture used by :func:`quick_federation`'s four sources.
_QUICK_TOPICS = [
    ("Source-DB", "AcmeSearch", {"databases": 0.8, "retrieval": 0.2}),
    ("Source-IR", "OkapiWorks", {"retrieval": 0.8, "databases": 0.2}),
    ("Source-Net", "InferNet", {"networking": 0.9, "databases": 0.1}),
    ("Source-Med", "ZeusFind", {"medicine": 1.0}),
]


def quick_federation(seed: int = 0, docs_per_source: int = 60, trace_sink=None):
    """Build a ready-to-query four-vendor federation on one resource.

    Returns ``(internet, resource_url)`` — everything a
    :class:`~repro.metasearch.Metasearcher` needs to get started.  The
    federation mixes four vendors (different ranking algorithms, score
    ranges and tokenizers) over four topically distinct collections.
    With ``trace_sink`` (a :class:`~repro.observability.TraceCollector`)
    the sources record their server-side spans of traced queries there.
    """
    internet = SimulatedInternet(seed=seed)
    resource = Resource("QuickFederation")
    for index, (source_id, vendor, topics) in enumerate(_QUICK_TOPICS):
        documents = generate_collection(
            CollectionSpec(
                name=source_id,
                topics=topics,
                size=docs_per_source,
                seed=seed + index,
            )
        )
        resource.add_source(build_vendor_source(vendor, source_id, documents))
    resource_url = "http://quick.example.org"
    publish_resource(internet, resource, resource_url, trace_sink=trace_sink)
    return internet, f"{resource_url}/resource"
