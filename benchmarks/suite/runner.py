"""One workload, one process: set up, check, measure, report.

``run.py`` is the command ``BENCHMARK.json`` names; it lands here.  A
run prints two JSON lines: a ``stamp`` (code version, seed, machine,
pass and operation counts, world parameters, the raw uncalibrated
latencies) and, last, the result object the benchmark contract asks for.

How a run is measured.  The workload is a fixed, seeded sequence of
operations driven by one closed-loop client thread.  After a discarded
reference pass (which also yields the answers every later pass must
reproduce) the sequence is replayed from the same initial state until
``--seconds`` have been measured, at least twice.  The value of
operation *i* is its **minimum time over the passes** and percentiles
are taken across operations.  ``search_qps`` is the median over passes
of a pass's operations per second, so a periodic cost the minimum hides
(GC, memo rebuilds) still shows.  Operation counts are fixed, never
durations, so counts repeat exactly.

Calibration.  This box changes speed under the benchmark, so every CPU
time is reported in **calibrated** milliseconds — what it would have
taken at reference machine speed, judged by a canary sampled every
40 ms through each timed stretch (see :mod:`benchmarks.suite.canary`).
Time a realtime host spent waiting is not CPU time and is not scaled.
The raw medians and the canary are in the stamp; nothing is hidden.
"""

from __future__ import annotations

import argparse
import gc
import json
import math
import os
import pathlib
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from dataclasses import dataclass

from repro.cache import CachePolicy
from repro.federation import AsyncExecutor, OutcomeStatus, QueryDispatcher, SerialExecutor
from repro.metasearch import Metasearcher
from repro.observability import MetricsRegistry, get_registry, set_registry

from benchmarks.suite.canary import REFERENCE_MS, Canary, Speedometer, StretchTimer
from benchmarks.suite.layers import LAYER_SPANS, discovery_metrics, layer_metrics
from benchmarks.suite.spans import LayerShim, SpanRecorder
from benchmarks.suite.workloads import WORKLOADS, Workload, workload_named
from benchmarks.suite.worlds import Inputs, World, build_world, generate_inputs

__all__ = ["END_TO_END", "PER_LAYER", "run_workload", "main"]

SUITE_DIR = pathlib.Path(__file__).resolve().parent
OUT_DIR = SUITE_DIR / "out"

#: name -> unit; BENCHMARK.json repeats these with direction and bound.
END_TO_END = {
    "search_p50_ms": "ms",
    "search_p95_ms": "ms",
    "search_qps": "1/s",
    "ttfr_p50_ms": "ms",
    "source_requests_per_query": "count",
    "setup_s": "s",
    "refresh_s": "s",
    "peak_rss_mb": "MB",
}

PER_LAYER = {
    **{name: "ms" for name in LAYER_SPANS},
    "selection.index_terms": "count",
    "selection.index_sources": "count",
    "cache.hit_fraction": "ratio",
    "cache.evictions": "count",
    "translation.lossless_fraction": "ratio",
    "federation.attempts_per_request": "ratio",
    "federation.stream_over_batch": "ratio",
    "transport.wire_bytes_per_query": "bytes",
    "transport.requests_per_query": "count",
    "transport.wait_ms_per_query": "ms",
    "source.docs_returned_per_query": "count",
    "engine.postings_walked_per_query": "count",
    "engine.postings_skipped_fraction": "ratio",
    "storage.open_ms": "ms",
    "storage.flush_s": "s",
    "storage.segments": "count",
    "storage.bytes_per_doc": "bytes",
    "merging.docs_merged_per_query": "count",
    "discovery.harvest_ms_per_source": "ms",
    "discovery.sample_fetch_share": "ratio",
    "observability.registry_overhead_ms": "ms",
    "harness.canary_ms": "ms",
    "harness.shim_overhead_fraction": "ratio",
    "harness.traced_p50_ms": "ms",
    "harness.layer_sum_over_p50": "ratio",
}

SETUP_REPEATS = 3
REFRESH_REPEATS = 3
#: Above this many sources one harvest already takes seconds; it is
#: measured once.
REFRESH_REPEAT_MAX_SOURCES = 100
OVERHEAD_OPERATIONS = 40
STREAM_OVER_BATCH_OPERATIONS = 20

Ranked = tuple[tuple[str, float], ...]


# -- the bench ---------------------------------------------------------------


@dataclass
class Bench:
    """Everything a pass needs: the program under test and its inputs."""

    workload: Workload
    inputs: Inputs
    world: World
    searcher: Metasearcher
    canary: Canary

    def reset(self) -> None:
        """Back to the sequence's initial state, outside any timed region."""
        if self.searcher.result_cache is not None:
            self.searcher.result_cache.clear()
        self.world.internet.reset_log()


def _timed_calibrated(canary: Canary, action) -> tuple[object, float]:
    """``(action(), calibrated seconds)`` for one long CPU-bound stretch."""
    gc.collect()
    timer = StretchTimer(canary)
    return timer.run(action), timer.calibrated_s


# -- one operation -----------------------------------------------------------


def _search(searcher: Metasearcher, query, k_sources: int):
    started = time.perf_counter()
    result = searcher.search(query, k_sources=k_sources)
    wall = time.perf_counter() - started
    return wall, wall, result


def _search_stream(searcher: Metasearcher, query, k_sources: int):
    """Drain the stream; time to first result = first emission with documents."""
    started = time.perf_counter()
    first = None
    result = None
    for emission in searcher.search_stream(query, k_sources=k_sources):
        if first is None and emission.documents:
            first = time.perf_counter()
        if emission.result is not None:
            result = emission.result
    ended = time.perf_counter()
    return ended - started, (ended if first is None else first) - started, result


def _problems(result, query, inputs: Inputs, expected: Ranked | None) -> list[str]:
    """Everything wrong with one answer (empty when it is right)."""
    found = []
    for source_id, outcome in result.outcomes.items():
        if outcome.status not in (OutcomeStatus.OK, OutcomeStatus.SKIPPED):
            found.append(f"{source_id} ended {outcome.status.value}")
    documents = result.documents
    if len(documents) > query.max_number_documents:
        found.append(f"{len(documents)} documents > MaxNumberDocuments")
    scores = [document.score for document in documents]
    if any(later > earlier for earlier, later in zip(scores, scores[1:])):
        found.append("scores increase down the rank")
    if any(document.linkage not in inputs.linkages for document in documents):
        found.append("linkage outside the corpus")
    if expected is not None and _ranked(result) != expected:
        found.append("rank differs from the reference pass")
    return found


def _ranked(result) -> Ranked:
    return tuple((document.linkage, document.score) for document in result.documents)


# -- one pass -----------------------------------------------------------------


@dataclass
class PassResult:
    """One replay of the sequence.  ``walls``/``firsts`` are calibrated."""

    walls: list[float]
    firsts: list[float]
    raw_walls: list[float]
    #: per operation, how much slower than reference the machine ran
    slowdowns: list[float]
    canary_ms: float
    ranked: list[Ranked | None]
    failed: int
    wire_requests: int
    first_problem: str = ""


def _run_pass(
    bench: Bench,
    reference: list[Ranked | None] | None,
    stream: bool,
    recorder: SpanRecorder | None = None,
) -> PassResult:
    bench.reset()
    gc.collect()
    execute = _search_stream if stream else _search
    inputs, searcher = bench.inputs, bench.searcher
    k_sources = bench.workload.k_sources
    log = bench.world.internet.log
    realtime = bench.world.internet.realtime
    speed = Speedometer(bench.canary)
    raw_walls, raw_firsts, ranked, sampled = [], [], [], []
    #: per operation, the seconds its slowest / fastest host really slept
    slept_longest, slept_shortest = [], []
    failed = 0
    first_problem = ""
    #: first answer per distinct query in this pass: a cache hit must
    #: equal the miss that filled it.
    first_answer: dict[int, Ranked] = {}
    for position, query_index in enumerate(inputs.operations):
        query = inputs.queries[query_index]
        sampled.append(speed.tick())
        if recorder is not None:
            recorder.op = position
        logged = len(log)
        try:
            wall, first, result = execute(searcher, query, k_sources)
        except Exception as error:  # a failed operation, not a crash
            wall = first = math.inf
            answer = None
            failed += 1
            first_problem = first_problem or f"op {position}: raised {error!r}"
        else:
            answer = _ranked(result)
            expected = reference[position] if reference is not None else None
            problems = _problems(result, query, inputs, expected)
            if first_answer.setdefault(query_index, answer) != answer:
                problems.append("a repeated query was answered differently")
            if problems:
                failed += 1
                first_problem = first_problem or f"op {position}: {problems[0]}"
        latencies = [record.latency_ms for record in log[logged:]] if realtime else []
        slept_longest.append(max(latencies, default=0.0) / 1000.0)
        slept_shortest.append(min(latencies, default=0.0) / 1000.0)
        raw_walls.append(wall)
        raw_firsts.append(first)
        ranked.append(answer)
    if recorder is not None:
        recorder.op = -1
    speed.sample(2)  # right-hand neighbours for the last operations
    slowdowns = [speed.slowdown_near(index) for index in sampled]
    return PassResult(
        walls=[
            slept + (wall - slept) / slowdown
            for wall, slept, slowdown in zip(raw_walls, slept_longest, slowdowns)
        ],
        firsts=[
            slept + (first - slept) / slowdown
            for first, slept, slowdown in zip(raw_firsts, slept_shortest, slowdowns)
        ],
        raw_walls=raw_walls,
        slowdowns=slowdowns,
        canary_ms=speed.canary_ms,
        ranked=ranked,
        failed=failed,
        wire_requests=len(log),
        first_problem=first_problem,
    )


# -- statistics -----------------------------------------------------------------


def _minima(series: list[list[float]]) -> list[float]:
    return [min(values) for values in zip(*series)]


def _p95(values: list[float]) -> float:
    ordered = sorted(values)
    return ordered[max(0, math.ceil(0.95 * len(ordered)) - 1)]


def _latency_metrics(passes: list[PassResult]) -> dict[str, float]:
    walls = _minima([one.walls for one in passes])
    return {
        "search_p50_ms": statistics.median(walls) * 1000.0,
        "search_p95_ms": _p95(walls) * 1000.0,
        "search_qps": statistics.median(
            len(one.walls) / sum(one.walls) for one in passes
        ),
        "ttfr_p50_ms": statistics.median(_minima([one.firsts for one in passes]))
        * 1000.0,
    }


# -- set-up ---------------------------------------------------------------------


def _make_searcher(world: World, workload: Workload) -> Metasearcher:
    return Metasearcher(
        world.internet,
        [world.resource_url],
        executor=AsyncExecutor() if workload.stream else SerialExecutor(),
        cache_policy=CachePolicy() if workload.cache else CachePolicy.disabled(),
    )


def _set_up(
    workload: Workload, inputs: Inputs, canary: Canary, scratch: pathlib.Path,
    repeats: int,
) -> tuple[World, float]:
    """Build the world ``repeats`` times; keep the last, report the median."""
    seconds = []
    world = None
    for attempt in range(repeats):
        if world is not None:
            world.close()
            world = None
            shutil.rmtree(scratch / f"build-{attempt - 1}", ignore_errors=True)
        world, elapsed = _timed_calibrated(
            canary,
            lambda: build_world(workload.world, inputs, scratch / f"build-{attempt}"),
        )
        seconds.append(elapsed)
    return world, statistics.median(seconds)


def _refresh(
    world: World, workload: Workload, canary: Canary, repeats: int
) -> tuple[Metasearcher, float]:
    """Harvest the published world into fresh searchers; keep the last."""
    seconds = []
    searcher = None
    for _ in range(repeats):
        searcher = _make_searcher(world, workload)
        known, elapsed = _timed_calibrated(canary, searcher.refresh)
        seconds.append(elapsed)
        if len(known) != workload.world.n_sources:
            raise RuntimeError(
                f"discovery found {len(known)} of {workload.world.n_sources} sources"
            )
    return searcher, statistics.median(seconds)


# -- the two kinds of run -----------------------------------------------------------


@dataclass
class Tally:
    """What a run has attempted so far, and what went wrong."""

    attempted: int = 0
    failed: int = 0
    problem: str = ""
    passes: int = 0

    def add(self, one: PassResult, expected_requests: int | None = None) -> None:
        """Count one pass; the reference pass comes without an expectation."""
        if expected_requests is not None:
            self.passes += 1
        self.attempted += len(one.walls)
        self.failed += one.failed
        self.problem = self.problem or one.first_problem
        if expected_requests is not None and one.wire_requests != expected_requests:
            self.failed += 1
            self.problem = self.problem or "wire request count differs between passes"


def _passes(
    bench: Bench, reference: PassResult, tally: Tally, budget_s: float,
    min_passes: int, recorder: SpanRecorder | None = None,
) -> tuple[list[PassResult], list[list]]:
    """Replay until ``budget_s`` is measured; also each pass's spans."""
    done, spans = [], []
    started = time.perf_counter()
    while len(done) < min_passes or time.perf_counter() - started < budget_s:
        if recorder is not None:
            recorder.clear()
        one = _run_pass(bench, reference.ranked, bench.workload.stream, recorder)
        tally.add(one, reference.wire_requests)
        done.append(one)
        spans.append(recorder.spans if recorder is not None else [])
    return done, spans


def _counter(name: str) -> float:
    family = get_registry().family(name)
    return family.labels().value if family is not None else 0.0


def _registry_overhead_ms(bench: Bench) -> float:
    """Median per-operation cost of the live registry over a disabled one.

    The same query runs twice under each, in alternating order, from a
    reset state, in simulated time; each side is worth its faster run.
    """
    live = get_registry()
    disabled = MetricsRegistry.disabled()
    k_sources = bench.workload.k_sources
    differences = []
    try:
        for position, query in enumerate(bench.inputs.queries[:OVERHEAD_OPERATIONS]):
            walls = {True: math.inf, False: math.inf}
            order = (live, disabled) if position % 2 == 0 else (disabled, live)
            for registry in order * 2:
                bench.reset()
                set_registry(registry)
                wall = _search(bench.searcher, query, k_sources)[0]
                walls[registry is live] = min(walls[registry is live], wall)
            differences.append(walls[True] - walls[False])
    finally:
        set_registry(live)
    return statistics.median(differences) * 1000.0


def _stream_over_batch(searcher: Metasearcher, requests_seen: list[list]) -> float:
    """Drained ``dispatch_stream`` wall over ``dispatch`` wall, same requests."""
    dispatcher = QueryDispatcher(
        searcher.client, executor=searcher.executor, policy=searcher.query_policy
    )
    ratios = []
    usable = [requests for requests in requests_seen if requests]
    for position, requests in enumerate(usable[:STREAM_OVER_BATCH_OPERATIONS]):
        walls = {}
        for streamed in (False, True) if position % 2 == 0 else (True, False):
            started = time.perf_counter()
            if streamed:
                outcomes = list(dispatcher.dispatch_stream(requests))
            else:
                outcomes = dispatcher.dispatch(requests)
            walls[streamed] = time.perf_counter() - started
            if not all(outcome.ok for outcome in outcomes):
                raise RuntimeError("a replayed source request did not end ok")
        ratios.append(walls[True] / walls[False])
    return statistics.median(ratios) if ratios else 0.0


def _measure_layers(
    bench: Bench, reference: PassResult, tally: Tally, seconds: float,
    min_passes: int, recorder: SpanRecorder, shim: LayerShim,
) -> dict[str, float]:
    """Untraced passes, then traced passes, then the side experiments."""
    world, workload = bench.world, bench.workload
    world.internet.realtime = workload.stream
    try:
        untraced, _ = _passes(bench, reference, tally, seconds / 2, min_passes)
        walked = _counter("engine_postings_walked_total")
        skipped = _counter("engine_postings_skipped_total")
        with shim:
            traced, span_passes = _passes(
                bench, reference, tally, seconds / 2, min_passes, recorder
            )
        walked = (_counter("engine_postings_walked_total") - walked) / len(traced)
        skipped = (_counter("engine_postings_skipped_total") - skipped) / len(traced)
        recorder.archive_spans()
        stream_over_batch = _stream_over_batch(bench.searcher, recorder.dispatched)
    finally:
        world.internet.realtime = False

    metrics = layer_metrics(span_passes, [one.slowdowns for one in traced])
    n_ops = len(bench.inputs.operations)
    untraced_p50 = _latency_metrics(untraced)["search_p50_ms"]
    traced_p50 = _latency_metrics(traced)["search_p50_ms"]
    index = bench.searcher.discovery.summary_index()
    n_docs = workload.world.n_sources * workload.world.docs_per_source
    metrics.update(
        {
            "selection.index_terms": index.term_count,
            "selection.index_sources": index.source_count,
            "federation.stream_over_batch": stream_over_batch,
            "engine.postings_walked_per_query": walked / n_ops,
            "engine.postings_skipped_fraction": (
                skipped / (walked + skipped) if walked + skipped else 0.0
            ),
            "storage.open_ms": world.stats["open_ms"],
            "storage.flush_s": world.stats["flush_s"],
            "storage.segments": world.stats["segments"],
            "storage.bytes_per_doc": world.stats["store_bytes"] / n_docs,
            "observability.registry_overhead_ms": _registry_overhead_ms(bench),
            "harness.canary_ms": statistics.median(
                one.canary_ms for one in untraced + traced
            ),
            "harness.shim_overhead_fraction": (traced_p50 - untraced_p50)
            / untraced_p50,
            "harness.traced_p50_ms": traced_p50,
            "harness.layer_sum_over_p50": sum(metrics[name] for name in LAYER_SPANS)
            / traced_p50,
        }
    )
    return metrics


def run_workload(
    workload: Workload, seed: int, seconds: float, trace: bool, smoke: bool = False
) -> tuple[dict, dict]:
    """``(stamp, result)`` for one workload in this process."""
    if smoke:
        workload = workload.smoke()
    inputs = generate_inputs(workload, seed)
    canary = Canary()
    quick = smoke or trace
    # A traced run splits --seconds between untraced and traced passes.
    min_passes = 1 if quick else 2
    tally = Tally()
    raw = {}
    OUT_DIR.mkdir(exist_ok=True)
    scratch = pathlib.Path(tempfile.mkdtemp(prefix="run-", dir=OUT_DIR))
    live_registry = get_registry()
    world = None
    try:
        world, setup_s = _set_up(
            workload, inputs, canary, scratch, 1 if quick else SETUP_REPEATS
        )
        recorder = SpanRecorder()
        if trace:
            searcher = _make_searcher(world, workload)
            shim = LayerShim(recorder, searcher)
            with shim:
                searcher.refresh()
            metrics = discovery_metrics(recorder.spans, workload.world.n_sources)
            recorder.archive_spans()
        else:
            many = workload.world.n_sources > REFRESH_REPEAT_MAX_SOURCES
            searcher, refresh_s = _refresh(
                world, workload, canary, 1 if quick or many else REFRESH_REPEATS
            )
            metrics = {"setup_s": setup_s, "refresh_s": refresh_s}
        bench = Bench(workload, inputs, world, searcher, canary)
        # The reference pass: batch search in simulated time.  It warms
        # every memo and fixes the answers each later pass — streamed,
        # traced or served from the cache — must reproduce bit for bit.
        reference = _run_pass(bench, None, stream=False)
        tally.add(reference)
        if trace:
            metrics.update(
                _measure_layers(
                    bench, reference, tally, seconds, min_passes, recorder, shim
                )
            )
            recorder.write_ndjson(OUT_DIR / f"trace-{workload.name}.ndjson")
        else:
            world.internet.realtime = workload.stream
            passes, _ = _passes(bench, reference, tally, seconds, min_passes)
            metrics.update(_latency_metrics(passes))
            metrics["source_requests_per_query"] = reference.wire_requests / len(
                inputs.operations
            )
            metrics["peak_rss_mb"] = (
                resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
            )
            raw = {
                "raw_search_p50_ms": statistics.median(
                    _minima([one.raw_walls for one in passes])
                )
                * 1000.0,
                "canary_ms": statistics.median(one.canary_ms for one in passes),
                "canary_reference_ms": REFERENCE_MS,
            }
    finally:
        set_registry(live_registry)
        if world is not None:
            world.internet.realtime = False
            world.close()
        shutil.rmtree(scratch, ignore_errors=True)

    if tally.problem:
        print(f"first failure: {tally.problem}", file=sys.stderr)
    units = PER_LAYER if trace else END_TO_END
    n_ops = len(inputs.operations)
    stamp = {
        "workload": workload.name,
        "seed": seed,
        "trace": trace,
        "smoke": smoke,
        "git_sha": _git_sha(),
        "python": platform.python_version(),
        "nproc": os.cpu_count(),
        "operations_per_pass": n_ops,
        "measured_passes": tally.passes,
        "seconds_requested": seconds,
        "p95_operations_beyond": n_ops - math.ceil(0.95 * n_ops),
        **raw,
        "parameters": workload.parameters(),
    }
    result = {
        "correct": tally.failed == 0,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": {
            name: {"value": metrics[name], "unit": unit}
            for name, unit in units.items()
        },
    }
    return stamp, result


def _git_sha() -> str:
    """The commit measured, or "unknown" outside a git checkout."""
    if not (SUITE_DIR.parents[1] / ".git").exists():
        return "unknown"
    try:
        return subprocess.run(
            ["git", "rev-parse", "HEAD"],
            cwd=SUITE_DIR,
            capture_output=True,
            text=True,
            check=True,
            timeout=10,
        ).stdout.strip()
    except (OSError, subprocess.SubprocessError):
        return "unknown"


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(
        description="Run one workload of the layered STARTS benchmark."
    )
    parser.add_argument(
        "--workload", required=True, choices=[w.name for w in WORKLOADS]
    )
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=5.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true")
    args = parser.parse_args(argv)
    stamp, result = run_workload(
        workload_named(args.workload),
        args.seed,
        args.seconds,
        bool(args.trace),
        args.smoke,
    )
    print(json.dumps({"stamp": stamp}))
    print(json.dumps(result))
    return 0
