"""Engine QPS benchmark: exhaustive evaluation vs. dynamic pruning.

A single-source ranking workload over a generated collection, timed on
the exhaustive term-at-a-time path with and without engine-side top-k
truncation, then on both engine modes (``engine.evaluation``) over a
truncated score-sorted workload.  Queries-per-second and per-query p50
wall-clock land in ``BENCH_engine_qps.json``.

Acceptance: the pruned path must clear 2x term-at-a-time QPS on the
truncated (top-k <= 10) score-sorted workload, with the skipped-postings
fraction reported alongside — and both must agree hit for hit; speed
means nothing if the answers drift.
"""

import json
import pathlib
import random
import time

from repro.corpus import CollectionSpec, generate_collection
from repro.engine import fields as F
from repro.engine.evaluation import PRUNED, TERM_AT_A_TIME
from repro.engine.query import ListQuery, TermQuery
from repro.engine.search import SearchEngine
from repro.observability.metrics import MetricsRegistry, get_registry, set_registry

RESULTS_DIR = pathlib.Path(__file__).parent / "results"

N_DOCS = 800
N_QUERIES = 24
TOP_K = 20

#: The pruned-vs-exhaustive comparison runs on a larger corpus with
#: longer ranking lists — the regime dynamic pruning exists for (the
#: fixed per-query overhead of the MaxScore driver washes out as the
#: posting lists it skips grow).
PRUNED_N_DOCS = 2000
PRUNED_TOP_K = 10
PRUNED_TERMS = (4, 6)


def _percentile(samples: list[float], quantile: float) -> float:
    ordered = sorted(samples)
    index = round(quantile * (len(ordered) - 1))
    return ordered[index]


def _build_engine(n_docs: int = N_DOCS) -> SearchEngine:
    spec = CollectionSpec(
        name="bench-qps",
        topics={"databases": 0.6, "retrieval": 0.4},
        size=n_docs,
        seed=17,
    )
    engine = SearchEngine()
    for document in generate_collection(spec):
        engine.add(document)
    return engine


def _build_queries(
    engine: SearchEngine, term_range: tuple[int, int] = (2, 4)
) -> list[ListQuery]:
    """Ranking lists of body terms drawn from the real vocabulary.

    Sampling from the index (rather than the topic pools) guarantees
    every query touches non-empty posting lists, which is the case the
    rewrite has to win on.
    """
    rng = random.Random(23)
    vocabulary = engine.index.vocabulary(F.BODY_OF_TEXT)
    queries = []
    for _ in range(N_QUERIES):
        terms = tuple(
            TermQuery(F.BODY_OF_TEXT, text, weight=rng.choice((1.0, 0.8, 0.5)))
            for text in rng.sample(vocabulary, rng.randint(*term_range))
        )
        queries.append(ListQuery(terms))
    return queries


def _run(engine: SearchEngine, queries, mode: str, top_k, repeats: int = 1):
    """(qps, p50_ms, hits per query) for one configuration.

    With ``repeats > 1``, the fastest batch is reported (the standard
    best-of-N guard against scheduler noise on comparison bars).
    """
    engine.evaluation = mode
    best_elapsed = None
    best_walls = None
    results = None
    for _ in range(repeats):
        walls = []
        batch = []
        started_batch = time.perf_counter()
        for query in queries:
            started = time.perf_counter()
            batch.append(engine.search(ranking_query=query, top_k=top_k))
            walls.append((time.perf_counter() - started) * 1000.0)
        elapsed = time.perf_counter() - started_batch
        if best_elapsed is None or elapsed < best_elapsed:
            best_elapsed = elapsed
            best_walls = walls
            results = batch
    return len(queries) / best_elapsed, _percentile(best_walls, 0.50), results


def test_bench_engine_qps(write_table):
    engine = _build_engine()
    queries = _build_queries(engine)

    taat_qps, taat_p50, _ = _run(engine, queries, TERM_AT_A_TIME, None)
    taat_k_qps, taat_k_p50, _ = _run(engine, queries, TERM_AT_A_TIME, TOP_K)

    # The pruned comparison: truncated (top-k <= 10) score-sorted
    # queries, where MaxScore/block-max skipping earns its keep.
    pruned_engine = _build_engine(PRUNED_N_DOCS)
    pruned_queries = _build_queries(pruned_engine, PRUNED_TERMS)
    taat_t_qps, taat_t_p50, taat_t_hits = _run(
        pruned_engine, pruned_queries, TERM_AT_A_TIME, PRUNED_TOP_K, repeats=3
    )
    previous_registry = get_registry()
    registry = set_registry(MetricsRegistry())
    try:
        pruned_qps, pruned_p50, pruned_hits = _run(
            pruned_engine, pruned_queries, PRUNED, PRUNED_TOP_K, repeats=3
        )
        walked_family = registry.family("engine_postings_walked_total")
        skipped_family = registry.family("engine_postings_skipped_total")
        walked = walked_family.labels().value if walked_family is not None else 0.0
        skipped = skipped_family.labels().value if skipped_family is not None else 0.0
    finally:
        set_registry(previous_registry)
    assert pruned_hits == taat_t_hits  # rank safety on the whole workload
    skipped_fraction = skipped / max(walked + skipped, 1)

    payload = {
        "benchmark": "engine_qps",
        "n_docs": N_DOCS,
        "n_queries": N_QUERIES,
        "top_k": TOP_K,
        "term_at_a_time": {
            "qps": round(taat_qps, 1),
            "p50_ms": round(taat_p50, 3),
            "qps_top_k": round(taat_k_qps, 1),
            "p50_ms_top_k": round(taat_k_p50, 3),
        },
        "pruned_workload": {
            "n_docs": PRUNED_N_DOCS,
            "top_k": PRUNED_TOP_K,
            "terms_per_query": list(PRUNED_TERMS),
            "term_at_a_time_qps": round(taat_t_qps, 1),
            "term_at_a_time_p50_ms": round(taat_t_p50, 3),
            "pruned_qps": round(pruned_qps, 1),
            "pruned_p50_ms": round(pruned_p50, 3),
            "postings_walked": int(walked),
            "postings_skipped": int(skipped),
            "postings_skipped_fraction": round(skipped_fraction, 3),
        },
    }
    payload["pruned_qps_speedup"] = round(pruned_qps / max(taat_t_qps, 1e-9), 2)
    RESULTS_DIR.mkdir(exist_ok=True)
    path = RESULTS_DIR / "BENCH_engine_qps.json"
    path.write_text(json.dumps(payload, indent=2) + "\n")

    fast = payload["term_at_a_time"]
    write_table(
        "ENGINE_qps",
        [
            f"{N_QUERIES} ranking queries over one {N_DOCS}-doc source",
            "",
            f"term-at-a-time      qps={fast['qps']:.0f} p50={fast['p50_ms']:.2f}ms"
            f"  (top-{TOP_K}: qps={fast['qps_top_k']:.0f})",
            "",
            f"pruned workload ({PRUNED_N_DOCS} docs, top-{PRUNED_TOP_K}):",
            f"term-at-a-time      qps={taat_t_qps:.0f} p50={taat_t_p50:.2f}ms",
            f"pruned (MaxScore)   qps={pruned_qps:.0f} p50={pruned_p50:.2f}ms"
            f"  ({payload['pruned_qps_speedup']:.2f}x, "
            f"{skipped_fraction:.0%} of postings skipped)",
        ],
    )

    # The acceptance bar: rank-safe pruning beats the exhaustive walk
    # by 2x on truncated queries.
    assert pruned_qps >= 2 * taat_t_qps
    assert skipped > 0
