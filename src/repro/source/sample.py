"""Sample-database results (§4.2, final paragraph).

Some engines cannot return per-term statistics — "by the time the
results are returned to the user, these statistics ... are lost".  For
those, STARTS asks sources to publish, as metadata, their query results
over a *fixed sample document collection* and a *fixed set of sample
queries*.  A metasearcher then treats the source as a black box and
calibrates its scores against the known sample.

The paper leaves the design of the sample open ("we are currently
investigating how to design this sample collection and queries"); this
module supplies a concrete design: a small topical collection spanning
every vocabulary topic, and single- and two-term sample queries with
graded expected difficulty, so a calibration curve (raw score →
comparable score) can be fit per source.
"""

from __future__ import annotations

import functools

from repro.corpus.generator import CollectionSpec, generate_collection
from repro.engine import fields as F
from repro.engine.documents import Document
from repro.engine.query import ListQuery, TermQuery
from repro.starts.errors import SoifSyntaxError
from repro.starts.query import _number
from repro.starts.soif import SoifObject

__all__ = [
    "sample_collection",
    "sample_queries",
    "SampleResults",
    "run_sample_queries",
]


@functools.cache
def sample_collection() -> tuple[Document, ...]:
    """The protocol-wide fixed sample collection (seeded, 40 docs).

    A constant, so it is generated once per process."""
    spec = CollectionSpec(
        name="starts-sample",
        topics={
            "databases": 1.0,
            "retrieval": 1.0,
            "networking": 1.0,
            "medicine": 1.0,
        },
        size=40,
        general_fraction=0.3,
        seed=424242,
        with_abstract=False,
    )
    return tuple(generate_collection(spec))


def sample_queries() -> list[tuple[str, ...]]:
    """The fixed sample query set: common, medium and rare terms."""
    return [
        ("system",),
        ("databases",),
        ("query",),
        ("network",),
        ("patient",),
        ("retrieval", "ranking"),
        ("databases", "distributed"),
        ("routing", "congestion"),
        ("diagnosis", "treatment"),
        ("analysis", "performance"),
    ]


class SampleResults:
    """Per-query top scores of a source over the sample collection.

    Wire form: one SOIF object with a ``QueryScores`` attribute, one
    line per sample query: the query terms, then the top-k scores.
    """

    def __init__(self, scores: dict[tuple[str, ...], list[float]]) -> None:
        self.scores = scores

    def all_scores(self) -> list[float]:
        flattened: list[float] = []
        for values in self.scores.values():
            flattened.extend(values)
        return flattened

    def to_soif(self) -> SoifObject:
        obj = SoifObject("SSampleResults")
        lines = []
        for terms, values in sorted(self.scores.items()):
            rendered = " ".join(repr(value) for value in values)
            lines.append(f"{','.join(terms)}: {rendered}")
        obj.add("QueryScores", "\n".join(lines))
        return obj

    @classmethod
    def from_soif(cls, obj: SoifObject) -> "SampleResults":
        scores: dict[tuple[str, ...], list[float]] = {}
        for line in (obj.get("QueryScores", "") or "").splitlines():
            line = line.strip()
            if not line:
                continue
            terms_text, colon, values_text = line.partition(":")
            if not colon:
                raise SoifSyntaxError(f"bad QueryScores line: {line!r}")
            terms = tuple(terms_text.split(","))
            scores[terms] = [
                _number(float, "QueryScores", piece, 0.0)
                for piece in values_text.split()
            ]
        return cls(scores)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, SampleResults):
            return NotImplemented
        return self.scores == other.scores


def run_sample_queries(engine_factory, top_k: int = 10) -> SampleResults:
    """Index the sample collection in a fresh engine and run the samples.

    Args:
        engine_factory: zero-argument callable returning a *fresh*
            engine configured exactly like the source's production
            engine (same analyzer and ranking algorithm) — what makes
            the sample results representative of the black box.
        top_k: how many top scores to record per query.
    """
    engine = engine_factory()
    engine.add_all(sample_collection())
    scores: dict[tuple[str, ...], list[float]] = {}
    for terms in sample_queries():
        ranking = ListQuery(tuple(TermQuery(F.BODY_OF_TEXT, term) for term in terms))
        hits = engine.search(ranking_query=ranking)
        scores[terms] = [hit.score for hit in hits[:top_k]]
    return SampleResults(scores)
