"""Broker hierarchies: scaling source selection past a flat index.

Reference [8] of the paper generalizes GlOSS to "broker hierarchies":
brokers summarize the summaries beneath them, and queries descend only
into promising branches.  ``repro.broker`` shards the sources over leaf
brokers by consistent hashing; the root probes each leaf's exact
aggregate statistics, skips leaves no query term touches and merges the
rest into the very top-k a flat index would return.

Run:  python examples/broker_hierarchy.py
"""

from repro import CollectionSpec, generate_collection
from repro.broker import build_hierarchy
from repro.metasearch import SummaryIndex, VGlossMax
from repro.observability import MetricsRegistry, get_registry, set_registry
from repro.source import StartsSource

SOURCES = [
    ("CS-DB", {"databases": 1.0}), ("CS-IR", {"retrieval": 1.0}),
    ("CS-Net", {"networking": 1.0}), ("Med-1", {"medicine": 1.0}),
    ("Med-2", {"medicine": 1.0}), ("Law-1", {"law": 1.0}),
    ("Cook-1", {"cooking": 1.0}), ("Astro-1", {"astronomy": 1.0}),
]
N_LEAVES = 3


def main() -> None:
    summaries = {}
    for index, (name, topics) in enumerate(SOURCES):
        documents = generate_collection(
            CollectionSpec(name=name, topics=topics, size=40, seed=index)
        )
        summaries[name] = StartsSource(name, documents).content_summary()

    root = build_hierarchy(N_LEAVES)
    for source_id, summary in summaries.items():
        root.apply_delta(source_id, summary)
    flat = SummaryIndex.from_summaries(summaries)

    print(f"{len(summaries)} sources under {N_LEAVES} leaf brokers")
    for leaf_id, owned in sorted(root.routing_table(sorted(summaries)).items()):
        print(f"  {leaf_id}: {', '.join(owned)}")
    print()

    selector = VGlossMax()
    process_registry = get_registry()
    for terms in (["databases", "query"], ["patient", "diagnosis"],
                  ["galaxy"], ["recipe", "sauce"]):
        registry = set_registry(MetricsRegistry())
        chosen = root.select(selector, terms, 2)
        set_registry(process_registry)
        ((_, depth),) = registry.family("broker_route_depth").children()
        assert chosen == selector.select(terms, flat, 2)
        print(
            f"query {str(terms):<28} -> {', '.join(chosen):<16} "
            f"(descended {depth.sum:.0f} of {N_LEAVES} leaves; "
            "same answer as the flat index)"
        )

    print("\nLeaf aggregate check: a leaf's published summary is exact —")
    table = root.routing_table(sorted(summaries))
    leaf = max(root.handles(), key=lambda handle: len(table[handle.leaf_id]))
    owned = table[leaf.leaf_id]
    aggregate = leaf.aggregate_summary()
    print(f"  {leaf.leaf_id} NumDocs = {aggregate.num_docs} "
          f"(= {' + '.join(str(summaries[s].num_docs) for s in owned)})")


if __name__ == "__main__":
    main()
