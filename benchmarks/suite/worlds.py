"""Seeded inputs and world construction.

Two halves, kept apart on purpose:

* :func:`generate_inputs` turns ``--seed`` into everything the program
  is fed — documents, queries, the replay order.  The seed goes no
  further than this function (and the simulated network's jitter
  stream); the program only ever receives what it produced.
* :func:`build_world` is the timed set-up: index every collection with
  the public constructors, flush/checkpoint/warm-reopen segment stores
  where the workload asks for them, and publish the lot on a fresh
  :class:`~repro.transport.SimulatedInternet`.
"""

from __future__ import annotations

import pathlib
import random
import time
from dataclasses import dataclass, field
from typing import TYPE_CHECKING

from repro.corpus.generator import CollectionSpec, generate_collection, zipf_weights
from repro.engine import fields as F
from repro.engine.documents import Document
from repro.engine.evaluation import PRUNED
from repro.engine.search import SearchEngine
from repro.resource import Resource
from repro.source import StartsSource
from repro.starts.ast import SList, STerm
from repro.starts.attributes import FieldRef
from repro.starts.lstring import LString
from repro.starts.query import SQuery
from repro.text.stopwords import ENGLISH_STOP_WORDS
from repro.transport import HostProfile, SimulatedInternet, publish_resource
from repro.vendors import VENDORS, build_vendor_source

if TYPE_CHECKING:
    from benchmarks.suite.workloads import Workload

__all__ = [
    "WorldSpec",
    "Inputs",
    "World",
    "generate_inputs",
    "build_world",
    "apportioned_replay",
]

RESOURCE_BASE_URL = "http://suite.example.org"

#: Topic mixtures cycled over the sources, so selection has something
#: to discriminate on (the paper's "databases is common in a CS source,
#: rare in an unrelated one").
TOPIC_PLANS = (
    {"databases": 0.9, "retrieval": 0.1},
    {"retrieval": 0.9, "databases": 0.1},
    {"networking": 1.0},
    {"medicine": 1.0},
    {"astronomy": 1.0},
    {"law": 1.0},
    {"cooking": 1.0},
    {"databases": 0.5, "networking": 0.5},
    {"medicine": 0.5, "law": 0.5},
    {"retrieval": 0.5, "astronomy": 0.5},
)

#: Every vendor that evaluates ranking expressions, so no selected
#: source is ever skipped for an untranslatable query.  Cycled over the
#: sources: each world is heterogeneous in ranking algorithm, score
#: range, tokenizer and stemming.
VENDOR_CYCLE = ("AcmeSearch", "OkapiWorks", "InferNet", "ZeusFind", "MundoDocs")

#: The Basic-1 fields a document carries; ``large_answers`` asks for
#: all of them back.
ALL_ANSWER_FIELDS = (
    F.TITLE,
    F.AUTHOR,
    F.BODY_OF_TEXT,
    F.ABSTRACT,
    F.DATE_LAST_MODIFIED,
    F.LINKAGE_TYPE,
    F.LANGUAGES,
    F.CROSS_REFERENCE_LINKAGE,
)


@dataclass(frozen=True)
class WorldSpec:
    """The shape of one workload's world (recorded in every output).

    Attributes:
        n_sources / docs_per_source / body_words: corpus size.
        vendors: the vendor profiles cycled over the sources.
        segments_flush_every: ``None`` builds in-memory engines; a
            number builds ``SearchEngine(storage="segments")`` with a
            flush every that many documents, then checkpoints, closes
            and warm-reopens each store before publishing.
        host_latency_ms: ``None`` keeps the default host profile; a
            ``(base, jitter, slow)`` triple gives every host
            ``base ± jitter`` ms and every fourth host ``slow`` ms.
        static_sample_blobs: serve each source's ``/sample`` endpoint
            from bytes computed once per vendor (the blob depends only
            on the vendor's engine configuration).  Without it a
            harvest re-indexes the 40-document sample collection per
            source (~40 ms each), which no time cap survives at a
            thousand sources.
    """

    n_sources: int
    docs_per_source: int
    body_words: tuple[int, int] = (60, 180)
    vendors: tuple[str, ...] = VENDOR_CYCLE
    segments_flush_every: int | None = None
    host_latency_ms: tuple[float, float, float] | None = None
    static_sample_blobs: bool = False


@dataclass(frozen=True)
class SourceInput:
    source_id: str
    vendor: str
    documents: list[Document]


@dataclass
class Inputs:
    """Everything generated from the seed."""

    seed: int
    sources: list[SourceInput]
    #: The distinct queries, in generation order.
    queries: list[SQuery]
    #: Indices into :attr:`queries`, one per operation of a pass.
    operations: list[int]
    #: Every linkage any source may legitimately return.
    linkages: frozenset[str]


@dataclass
class World:
    """A built, published world."""

    internet: SimulatedInternet
    resource_url: str
    engines: list[SearchEngine]
    #: Set-up side measurements the storage layer metrics come from.
    stats: dict[str, float] = field(default_factory=dict)

    def close(self) -> None:
        for engine in self.engines:
            engine.close()


# -- inputs ---------------------------------------------------------------


def generate_inputs(workload: "Workload", seed: int) -> Inputs:
    """Documents, queries and operation order for one run."""
    spec = workload.world
    sources = [
        SourceInput(
            source_id=f"Src-{index:04d}",
            vendor=spec.vendors[index % len(spec.vendors)],
            documents=generate_collection(
                CollectionSpec(
                    name=f"Src-{index:04d}",
                    topics=TOPIC_PLANS[index % len(TOPIC_PLANS)],
                    size=spec.docs_per_source,
                    body_words=spec.body_words,
                    seed=seed * 100_003 + index,
                )
            ),
        )
        for index in range(spec.n_sources)
    ]
    rng = random.Random(seed * 7919 + 17)
    queries = _draw_queries(
        sources,
        rng,
        workload.n_queries,
        workload.terms_per_query,
        workload.max_documents,
        workload.answer_fields,
    )
    if workload.replay_requests is None:
        operations = list(range(len(queries)))
    else:
        operations = apportioned_replay(
            len(queries), workload.replay_requests, workload.replay_skew, rng
        )
    linkages = frozenset(
        document.linkage for source in sources for document in source.documents
    )
    return Inputs(seed, sources, queries, operations, linkages)


def _draw_queries(
    sources: list[SourceInput],
    rng: random.Random,
    n_queries: int,
    terms_per_query: tuple[int, int],
    max_documents: int,
    answer_fields: tuple[str, ...],
) -> list[SQuery]:
    """Distinct flat ranking queries whose terms come from one document.

    Term counts cycle through the range instead of being drawn, so two
    seeds give the same mix of one-, two- and three-term queries and
    differ only in which words those are.
    """
    documents = [doc for source in sources for doc in source.documents]
    low, high = terms_per_query
    seen: set[tuple[str, ...]] = set()
    queries: list[SQuery] = []
    attempts = 0
    while len(queries) < n_queries:
        attempts += 1
        if attempts > n_queries * 200:
            raise RuntimeError(
                f"could not draw {n_queries} distinct queries from the corpus"
            )
        wanted = low + len(queries) % (high - low + 1)
        pool = sorted(
            {
                word
                for word in rng.choice(documents).body.split()
                if len(word) > 3
                and word.isalpha()
                and not ENGLISH_STOP_WORDS.is_stop_word(word)
            }
        )
        if len(pool) < wanted:
            continue
        terms = tuple(sorted(rng.sample(pool, wanted)))
        if terms in seen:
            continue
        seen.add(terms)
        queries.append(
            SQuery(
                ranking_expression=SList(
                    tuple(
                        STerm(LString(term), FieldRef(F.BODY_OF_TEXT))
                        for term in terms
                    )
                ),
                answer_fields=answer_fields,
                max_number_documents=max_documents,
            )
        )
    return queries


def apportioned_replay(
    n_queries: int, n_requests: int, skew: float, rng: random.Random
) -> list[int]:
    """A Zipf-skewed request order whose *counts* do not depend on the seed.

    Query ``i`` gets its largest-remainder share of ``n_requests`` under
    weights ``1 / (i + 1) ** skew``; the seed only shuffles the order.
    A sampled replay (``repro.corpus.zipf_replay``) draws a different
    number of distinct queries per seed, which makes the hit fraction
    and the wire requests per query wander by a few percent — here both
    repeat exactly, as counts should.
    """
    weights = zipf_weights(n_queries, skew)
    total = sum(weights)
    shares = [n_requests * weight / total for weight in weights]
    counts = [int(share) for share in shares]
    by_remainder = sorted(
        range(n_queries), key=lambda i: (counts[i] - shares[i], i)
    )
    for index in by_remainder[: n_requests - sum(counts)]:
        counts[index] += 1
    order = [index for index, count in enumerate(counts) for _ in range(count)]
    rng.shuffle(order)
    return order


# -- set-up -----------------------------------------------------------------


def build_world(
    spec: WorldSpec, inputs: Inputs, scratch: pathlib.Path
) -> World:
    """Index, persist where asked, and publish: the timed set-up."""
    internet = SimulatedInternet(seed=inputs.seed)
    resource = Resource("SuiteFederation")
    engines: list[SearchEngine] = []
    stats = {"flush_s": 0.0, "open_ms": 0.0, "segments": 0.0, "store_bytes": 0.0}
    for source_input in inputs.sources:
        if spec.segments_flush_every is None:
            source = build_vendor_source(
                source_input.vendor, source_input.source_id, source_input.documents
            )
        else:
            source = _segment_backed_source(
                source_input,
                scratch / source_input.source_id,
                spec.segments_flush_every,
                stats,
            )
        engines.append(source.engine)
        resource.add_source(source)

    profiles = None
    if spec.host_latency_ms is not None:
        base, jitter, slow = spec.host_latency_ms
        profiles = {
            source_input.source_id: (
                HostProfile(latency_ms=slow, jitter_ms=0.0)
                if index % 4 == 3
                else HostProfile(latency_ms=base, jitter_ms=jitter)
            )
            for index, source_input in enumerate(inputs.sources)
        }
    resource_url = publish_resource(
        internet, resource, RESOURCE_BASE_URL, source_profiles=profiles
    )
    if spec.static_sample_blobs:
        _serve_static_samples(internet, resource, inputs.sources)
    return World(internet, resource_url, engines, stats)


def _segment_engine(vendor: str, directory: pathlib.Path) -> SearchEngine:
    profile = VENDORS[vendor]
    return SearchEngine(
        analyzer=profile.analyzer_factory(),
        ranking=profile.ranking_factory(),
        evaluation=PRUNED,
        storage="segments",
        storage_dir=directory,
    )


def _segment_backed_source(
    source_input: SourceInput,
    directory: pathlib.Path,
    flush_every: int,
    stats: dict[str, float],
) -> StartsSource:
    """Build on disk, checkpoint, close, and serve from a warm reopen."""
    builder = _segment_engine(source_input.vendor, directory)
    try:
        documents = source_input.documents
        for start in range(0, len(documents), flush_every):
            builder.add_all(documents[start : start + flush_every])
            started = time.perf_counter()
            builder.flush()
            stats["flush_s"] += time.perf_counter() - started
        builder.checkpoint()
    finally:
        builder.close()
    started = time.perf_counter()
    engine = _segment_engine(source_input.vendor, directory)
    stats["open_ms"] += (time.perf_counter() - started) * 1000.0
    stats["segments"] += engine.segment_store.segment_count
    stats["store_bytes"] += engine.segment_store.total_bytes()
    profile = VENDORS[source_input.vendor]
    return StartsSource(
        source_input.source_id,
        engine=engine,
        capabilities=profile.capabilities_factory(),
        source_name=f"{profile.name} {source_input.source_id}",
        native_syntax=profile.native_syntax,
    )


def _serve_static_samples(
    internet: SimulatedInternet, resource: Resource, sources: list[SourceInput]
) -> None:
    blobs: dict[str, bytes] = {}
    for source_input in sources:
        source = resource.source(source_input.source_id)
        blob = blobs.get(source_input.vendor)
        if blob is None:
            blob = source.sample_results().to_soif().dump().encode("utf-8")
            blobs[source_input.vendor] = blob
        internet.register_get(
            f"{source.base_url}/sample", lambda blob=blob: blob
        )
