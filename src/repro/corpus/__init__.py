"""Synthetic corpora, query workloads, and the relevance oracle.

Replaces the paper's proprietary document sources (Dialog, CS-TR, web
crawls) with seeded, reproducible collections whose skewed term
statistics exercise the same protocol machinery.  See DESIGN.md's
substitution table.
"""

from repro.corpus.canned import (
    lagunita_document,
    source1_documents,
    source2_documents,
    ullman_dood_document,
)
from repro.corpus.generator import (
    CollectionSpec,
    generate_collection,
    zipf_weights,
)
from repro.corpus.workload import (
    GeneratedQuery,
    Workload,
    build_workload,
    zipf_replay,
)

__all__ = [
    "lagunita_document",
    "source1_documents",
    "source2_documents",
    "ullman_dood_document",
    "CollectionSpec",
    "generate_collection",
    "zipf_weights",
    "GeneratedQuery",
    "Workload",
    "build_workload",
    "zipf_replay",
]
