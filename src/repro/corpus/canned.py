"""Canned mini-collections reproducing the paper's running examples.

The paper's worked examples revolve around two Stanford documents — the
Ullman "deductive vs. object-oriented databases" comparison at Source-1
and the Lagunita report at Source-2.  These fixtures let the golden
tests (EX1–EX12 in DESIGN.md) run the full stack over exactly the
paper's scenario (Example 11's bilingual source lives with its one
test, ``tests/starts/test_paper_examples.py``).
"""

from __future__ import annotations

from repro.engine import fields as F
from repro.engine.documents import Document

__all__ = [
    "ullman_dood_document",
    "lagunita_document",
    "source1_documents",
    "source2_documents",
]


def ullman_dood_document() -> Document:
    """The Example 8 document at Source-1 (score 0.82 in the paper)."""
    body = (
        "This report compares deductive databases with object-oriented "
        "database systems. Distributed evaluation of datalog programs is "
        "discussed, and distributed databases are contrasted with "
        "centralized databases. The databases community has studied "
        "recursive query processing in deductive databases, while the "
        "object-oriented databases community emphasizes modeling. We survey "
        "distributed query optimization for databases and summarize open "
        "problems for databases research."
    )
    return Document(
        "http://www-db.stanford.edu/~ullman/pub/dood.ps",
        {
            F.TITLE: "A Comparison Between Deductive and Object-Oriented Database Systems",
            F.AUTHOR: "Jeffrey D. Ullman",
            F.BODY_OF_TEXT: body,
            F.DATE_LAST_MODIFIED: "1995-06-12",
            F.LINKAGE_TYPE: "application/postscript",
        },
    )


def lagunita_document() -> Document:
    """The Example 9 document at Source-2 (score 0.27 in the paper).

    Its body repeats the query words more often than the Source-1
    document's (the paper gives tf 20 and 34 vs. 10 and 15), so a
    statistics-based re-ranking flips the order — the exact scenario of
    Example 9.
    """
    sentences = [
        "Database research achievements and opportunities are surveyed.",
        "Distributed databases remain central to the research agenda.",
    ]
    # Make "distributed" and "databases" genuinely frequent.
    sentences.extend(
        "Distributed databases and distributed systems for databases "
        "pose new challenges for databases researchers working on "
        "distributed query processing over databases."
        .split(". ")
    )
    body = " ".join(sentences * 4)
    return Document(
        "http://elib.stanford.edu/lagunita.ps",
        {
            F.TITLE: "Database Research: Achievements and Opportunities into the 21st. Century",
            F.AUTHOR: "Avi Silberschatz, Mike Stonebraker, Jeff Ullman",
            F.BODY_OF_TEXT: body,
            F.DATE_LAST_MODIFIED: "1996-01-20",
            F.LINKAGE_TYPE: "application/postscript",
        },
    )


def source1_documents() -> list[Document]:
    """Source-1: the Ullman document plus topical distractors."""
    distractors = [
        Document(
            "http://www-db.stanford.edu/pub/gravano95.ps",
            {
                F.TITLE: "Generalizing GlOSS for Vector-Space Databases",
                F.AUTHOR: "Luis Gravano",
                F.BODY_OF_TEXT: (
                    "Text database discovery chooses promising databases for a "
                    "query. GlOSS summarizes sources with word statistics and "
                    "ranks the sources for each query."
                ),
                F.DATE_LAST_MODIFIED: "1995-09-01",
            },
        ),
        Document(
            "http://www-db.stanford.edu/pub/chang96.ps",
            {
                F.TITLE: "Boolean Query Mapping Across Heterogeneous Systems",
                F.AUTHOR: "Chen-Chuan K. Chang",
                F.BODY_OF_TEXT: (
                    "Translating boolean queries across heterogeneous information "
                    "sources requires mapping predicates between query models and "
                    "rewriting unsupported filters."
                ),
                F.DATE_LAST_MODIFIED: "1996-04-18",
            },
        ),
    ]
    return [ullman_dood_document(), *distractors]


def source2_documents() -> list[Document]:
    """Source-2: the Lagunita report plus a distractor."""
    distractor = Document(
        "http://elib.stanford.edu/infobus.ps",
        {
            F.TITLE: "The Stanford InfoBus: Interoperability for Digital Libraries",
            F.AUTHOR: "Andreas Paepcke",
            F.BODY_OF_TEXT: (
                "The InfoBus hosts metasearchers and wraps heterogeneous services "
                "behind uniform protocols for digital library interoperability."
            ),
            F.DATE_LAST_MODIFIED: "1996-05-30",
        },
    )
    return [lagunita_document(), distractor]
