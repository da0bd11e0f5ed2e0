"""Command-line interface: ``python -m repro <command>``.

Commands:

* ``search [EXPR] [--filter] [--stream]`` — build the quick federation
  and run one metasearch over it (e.g. ``python -m repro search
  '(body-of-text "databases")'``; without ``EXPR``, a canned demo
  query); ``--filter`` treats the expression as a filter instead of a
  ranking; with ``--stream``, print merged results incrementally (with
  per-emission latency) as sources answer, via the asyncio executor.
* ``parse EXPR`` — parse an expression and print its canonical form and
  PQF encoding.
* ``select TERMS [--selector NAME] [-k N]`` — harvest the quick
  federation's summaries and print every source's rank and goodness.
* ``experiment {F1,T1-T3,E1,E1b,E2-E7,A1a,A1b,A1c,A2,A3}`` — regenerate
  one table of EXPERIMENTS.md exactly as ``benchmarks/results/`` holds it.
* ``conformance`` — conformance-check every built-in vendor.
* ``explain [EXPR] [--sources N] [--ndjson PATH]`` — run one traced
  search and say what it did: the selection rank table, then
  ``MetasearchResult.explain()`` — per source the outcome, what
  translation dropped and the actual expressions the source reported,
  the span tree with the sources' server-side spans stitched in, a
  self-time column and every cache decision as one ``cache`` event, and
  the query-log record; ``--ndjson`` writes the same rows and record as
  an event log.
* ``checkpoint {save,load,inspect} DIR`` — build a segmented demo
  index and checkpoint it, warm-start an engine from the directory,
  or print the manifest (segments, generation) without
  paging in any segment data.
* ``serve [--port N] [--once]`` — serve a demo federation over real
  HTTP (``GET /metrics`` is the Prometheus exposition).
"""

from __future__ import annotations

import argparse
import contextlib
import sys

from repro import Metasearcher, SQuery, parse_expression, quick_federation


def _build_searcher(seed: int, tracer=None, trace_sink=None) -> Metasearcher:
    internet, resource_url = quick_federation(seed=seed, trace_sink=trace_sink)
    searcher = Metasearcher(internet, [resource_url])
    searcher.refresh(tracer)
    return searcher


#: What ``search`` and ``explain`` run when given no expression.
_DEMO_EXPRESSION = 'list((body-of-text "distributed") (body-of-text "databases"))'


def _print_rank(documents) -> None:
    for document in documents:
        print(f"{document.score:10.4f}  [{document.source_id}]  {document.linkage}")


def cmd_search(args: argparse.Namespace) -> int:
    searcher = _build_searcher(args.seed)
    expression = args.expression
    if args.filter:
        query = SQuery(filter_expression=expression, max_number_documents=args.limit)
    else:
        query = SQuery(ranking_expression=expression, max_number_documents=args.limit)
    if not args.stream:
        result = searcher.search(query, k_sources=args.sources)
        print("selected sources:", ", ".join(result.selected_sources))
        _print_rank(result.documents)
        return 0
    from repro.federation import AsyncExecutor

    if args.realtime:
        searcher.client.internet.realtime = True
    executor = AsyncExecutor(max_concurrency=max(args.sources, 1))
    final = None
    for emission in searcher.search_stream(
        query, k_sources=args.sources, executor=executor
    ):
        if emission.is_final:
            final = emission
            continue
        source = emission.outcome.source_id if emission.outcome else "-"
        status = emission.outcome.status.value if emission.outcome else "-"
        print(
            f"[{emission.elapsed_ms:8.1f} ms] #{emission.sequence} "
            f"{source}: {status}  merged={len(emission.documents)} "
            f"pending={emission.pending}"
        )
    if final is None:
        return 1
    flag = "  (terminated early)" if final.terminated_early else ""
    print(f"final after {final.elapsed_ms:.1f} ms{flag}:")
    _print_rank(final.documents)
    return 0


def cmd_parse(args: argparse.Namespace) -> int:
    print("canonical:", args.expression.serialize())
    try:
        from repro.zdsr import starts_to_pqf

        print("pqf:      ", starts_to_pqf(args.expression))
    except KeyError as error:
        print(f"pqf:       (no ZDSR mapping for {error})")
    return 0


def _print_selection(
    searcher: Metasearcher, name: str, selector, terms: list[str], k: int
) -> None:
    """Every harvested source's rank and goodness, the top ``k`` starred."""
    index = searcher.discovery.summary_index()
    chosen = set(selector.select(terms, index, k))
    print(f"selector: {name}   terms: {' '.join(terms)}")
    print(f"sources:  {len(index)} harvested, top {k} requested")
    print(f"{'rank':>4}  {'goodness':>12}  source")
    for rank, (source_id, goodness) in enumerate(selector.rank(terms, index), 1):
        marker = "*" if source_id in chosen else " "
        print(f"{rank:>4}{marker} {goodness:>12.4f}  {source_id}")


def cmd_select(args: argparse.Namespace) -> int:
    from repro.metasearch import SELECTOR_REGISTRY

    terms = args.terms.split()
    if not terms:
        print("empty query", file=sys.stderr)
        return 2
    searcher = _build_searcher(args.seed)
    selector = SELECTOR_REGISTRY[args.selector]()
    try:
        _print_selection(searcher, args.selector, selector, terms, args.k)
    except ValueError as error:
        print(error, file=sys.stderr)
        return 2
    return 0


def cmd_experiment(args: argparse.Namespace) -> int:
    from repro.experiments import ARTIFACTS

    build = ARTIFACTS.get(args.id.capitalize())
    if build is None:
        print(f"unknown experiment: {args.id}", file=sys.stderr)
        return 2
    lines, _ = build()
    print("\n".join(lines))
    return 0


def cmd_conformance(args: argparse.Namespace) -> int:
    from repro.conformance import check_source
    from repro.corpus import source1_documents
    from repro.vendors import build_vendor_source, vendor_names

    worst = 0
    for vendor in vendor_names():
        source = build_vendor_source(vendor, f"{vendor}-probe", source1_documents())
        report = check_source(source)
        verdict = "CONFORMANT" if report.passed else "NON-CONFORMANT"
        print(f"{vendor:<12} {verdict}")
        for finding in report.failures():
            print(f"  {finding.row()}")
            worst = 1
    return worst


def cmd_explain(args: argparse.Namespace) -> int:
    import json

    from repro.observability import (
        TraceCollector,
        Tracer,
        get_query_log,
        render_ndjson,
    )

    # One tracer across discovery and the search, so the timeline shows
    # the whole round; the sources hand their server-side spans to the
    # collector.
    collector = TraceCollector()
    tracer = Tracer()
    searcher = _build_searcher(args.seed, tracer, collector)
    result = searcher.search(
        SQuery(ranking_expression=args.expression, max_number_documents=5),
        k_sources=args.sources,
        tracer=tracer,
    )
    terms = result.trace.find("search").attributes["terms"].split()
    selector = searcher.selector
    _print_selection(searcher, selector.name, selector, terms, args.sources)
    print()
    print(result.explain(collector.traces()))
    if args.ndjson:
        with open(args.ndjson, "w", encoding="utf-8") as handle:
            handle.write(render_ndjson(result.trace, collector.traces()))
            for record in get_query_log().records(trace_id=tracer.trace_id):
                handle.write(json.dumps(record.to_json(), sort_keys=True) + "\n")
        print(f"ndjson events written to {args.ndjson}")
    return 0


def cmd_checkpoint(args: argparse.Namespace) -> int:
    import pathlib
    import time

    from repro.corpus import CollectionSpec, generate_collection
    from repro.engine import fields as F
    from repro.engine.query import TermQuery
    from repro.engine.search import SearchEngine
    from repro.storage import read_manifest

    directory = pathlib.Path(args.dir)

    if args.action == "save":
        documents = generate_collection(
            CollectionSpec(
                name="checkpoint-demo",
                topics={"databases": 1.0, "networking": 0.4},
                size=args.size,
                seed=args.seed,
            )
        )
        engine = SearchEngine(storage_dir=directory)
        engine.add_all(documents)
        manifest_path = engine.checkpoint(merge=args.merge)
        store = engine.segment_store
        print(f"checkpointed {engine.document_count} documents to {directory}")
        print(f"  manifest:   {manifest_path}")
        print(f"  generation: {store.generation}")
        print(f"  segments:   {store.segment_count} "
              f"({store.manifest.total_bytes():,} bytes)")
        engine.close()
        return 0

    if args.action == "load":
        if read_manifest(directory) is None:
            print(f"cannot open {directory}: no manifest", file=sys.stderr)
            return 2
        started = time.perf_counter()
        try:
            engine = SearchEngine(storage_dir=directory)
        except Exception as error:  # noqa: BLE001 - CLI surface
            print(f"cannot open {directory}: {error}", file=sys.stderr)
            return 2
        elapsed_ms = (time.perf_counter() - started) * 1000.0
        store = engine.segment_store
        print(f"warm start from {directory} in {elapsed_ms:.1f} ms")
        print(f"  documents:  {engine.document_count}")
        print(f"  segments:   {store.segment_count} "
              f"(generation {store.generation})")
        hits = engine.search(TermQuery(F.BODY_OF_TEXT, "databases"))[:5]
        print(f'  "databases" hits: {len(hits)} shown of a top-5 probe')
        for hit in hits:
            print(f"    {hit.score:10.4f}  {engine.store[hit.doc_id].linkage}")
        engine.close()
        return 0

    # inspect: print the manifest without paging in any segment data.
    manifest = read_manifest(directory)
    if manifest is None:
        print(f"no manifest in {directory}", file=sys.stderr)
        return 2
    print(f"manifest at {directory}")
    print(f"  generation:  {manifest.generation}")
    print(f"  analyzer:    {manifest.analyzer}")
    print(f"  ranking:     {manifest.ranking}")
    print(f"  segments:    {len(manifest.segments)} "
          f"({manifest.total_bytes():,} bytes, "
          f"ceiling {manifest.document_ceiling})")
    print(f"  {'name':<14} {'base':>8} {'docs':>8} {'bytes':>12}")
    for meta in manifest.segments:
        print(f"  {meta.name:<14} {meta.doc_base:>8} {meta.doc_count:>8} "
              f"{meta.size_bytes:>12,}")
    return 0


def cmd_serve(args: argparse.Namespace) -> int:
    import threading

    from repro import CollectionSpec, generate_collection
    from repro.resource import Resource
    from repro.transport import StartsHttpServer
    from repro.vendors import build_vendor_source

    resource = Resource("DemoFederation")
    plans = [
        ("Demo-DB", "AcmeSearch", {"databases": 1.0}),
        ("Demo-Med", "OkapiWorks", {"medicine": 1.0}),
    ]
    for index, (source_id, vendor, topics) in enumerate(plans):
        documents = generate_collection(
            CollectionSpec(name=source_id, topics=topics, size=40, seed=args.seed + index)
        )
        resource.add_source(build_vendor_source(vendor, source_id, documents))

    with StartsHttpServer(resource, port=args.port) as server:
        print(f"STARTS federation serving at {server.base_url}")
        print(f"  resource:  {server.resource_url()}")
        for source_id, _, _ in plans:
            print(f"  {source_id}: {server.source_query_url(source_id)}")
        if not args.once:
            print("Ctrl-C to stop.")
            with contextlib.suppress(KeyboardInterrupt):
                threading.Event().wait()
    return 0


def main(argv: list[str] | None = None) -> int:
    from repro.metasearch import SELECTOR_REGISTRY

    parser = argparse.ArgumentParser(
        prog="python -m repro",
        description="STARTS metasearch reproduction — demo CLI",
    )
    parser.add_argument("--seed", type=int, default=7, help="federation seed")
    commands = parser.add_subparsers(dest="command", required=True)

    search = commands.add_parser(
        "search", help="run a metasearch, optionally streaming merged results"
    )
    search.add_argument("expression", nargs="?", default=_DEMO_EXPRESSION)
    search.add_argument("--filter", action="store_true", help="treat as filter")
    search.add_argument(
        "--stream",
        action="store_true",
        help="print merged results incrementally as sources answer",
    )
    search.add_argument(
        "--realtime",
        action="store_true",
        help="with --stream: sleep out simulated latencies on the wall clock",
    )
    search.add_argument("--limit", type=int, default=10)
    search.add_argument("--sources", type=int, default=3)
    search.set_defaults(handler=cmd_search)

    parse = commands.add_parser("parse", help="parse and re-serialize")
    parse.add_argument("expression")
    parse.set_defaults(handler=cmd_parse)

    select = commands.add_parser(
        "select", help="harvest summaries and rank sources for query terms"
    )
    select.add_argument("terms", help='query terms, e.g. "distributed databases"')
    select.add_argument(
        "--selector", choices=list(SELECTOR_REGISTRY), default="cori"
    )
    select.add_argument("-k", type=int, default=5, help="sources to select")
    select.set_defaults(handler=cmd_select)

    experiment = commands.add_parser(
        "experiment",
        help="print one table of EXPERIMENTS.md",
        description="Print one table of EXPERIMENTS.md as benchmarks/results/ holds "
        "it; its sizes and seed are part of its definition, so --seed does not apply.",
    )
    experiment.add_argument("id", help="F1, T1..T3, E1, E1b, E2..E7, A1a..A1c, A2, A3")
    experiment.set_defaults(handler=cmd_experiment)

    conformance = commands.add_parser(
        "conformance", help="conformance-check every built-in vendor"
    )
    conformance.set_defaults(handler=cmd_conformance)

    explain = commands.add_parser(
        "explain", help="run one traced search and say what it did"
    )
    explain.add_argument("expression", nargs="?", default=_DEMO_EXPRESSION)
    explain.add_argument("--sources", type=int, default=3)
    explain.add_argument("--ndjson", metavar="PATH", help="write NDJSON event log")
    explain.set_defaults(handler=cmd_explain)

    checkpoint = commands.add_parser(
        "checkpoint", help="save, warm-load, or inspect a segment store"
    )
    checkpoint.add_argument("action", choices=["save", "load", "inspect"])
    checkpoint.add_argument("dir", help="segment store directory")
    checkpoint.add_argument(
        "--size", type=int, default=200, help="documents to generate for save"
    )
    checkpoint.add_argument(
        "--merge", action="store_true", help="compact segments while saving"
    )
    checkpoint.set_defaults(handler=cmd_checkpoint)

    serve = commands.add_parser(
        "serve", help="serve a demo federation over real HTTP"
    )
    serve.add_argument("--port", type=int, default=8080)
    serve.add_argument(
        "--once", action="store_true", help="start, print URLs, and exit (for tests)"
    )
    serve.set_defaults(handler=cmd_serve)

    args = parser.parse_args(argv)
    if "expression" in args:  # every command that takes one takes it parsed
        args.expression = parse_expression(args.expression)
        if args.expression is None:
            print("empty expression", file=sys.stderr)
            return 2
    return args.handler(args)


if __name__ == "__main__":
    raise SystemExit(main())
