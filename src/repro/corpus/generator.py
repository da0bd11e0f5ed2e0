"""Deterministic synthetic collection generator.

The paper's world — Dialog, CS-TR, web crawls — is replaced by seeded
synthetic collections (see DESIGN.md's substitution table).  Each
collection has a topic mixture; document text is drawn from the topic
pools under a Zipfian rank-frequency distribution, which reproduces the
skewed tf/df statistics that source selection (GlOSS) and rank merging
depend on.  Everything is driven by an explicit ``random.Random(seed)``
so corpora are reproducible across runs and machines.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field as dataclass_field

from collections import Counter

from repro.corpus import vocabulary as V
from repro.engine import fields as F
from repro.engine.documents import Document
from repro.starts.metadata import SContentSummary, SummaryEntryLine, SummarySection

__all__ = [
    "CollectionSpec",
    "SummaryPopulationSpec",
    "generate_collection",
    "generate_source_summaries",
    "zipf_weights",
]


def zipf_weights(count: int, exponent: float = 1.0) -> list[float]:
    """Zipfian weights 1/rank^exponent for ``count`` items."""
    return [1.0 / (rank ** exponent) for rank in range(1, count + 1)]


@dataclass(frozen=True)
class CollectionSpec:
    """Recipe for one synthetic collection.

    Attributes:
        name: source id, also used in linkage URLs.
        topics: topic name → mixture weight.  Weights need not sum to 1;
            they are normalized.  Topic names must exist in
            :data:`repro.corpus.vocabulary.TOPICS`.
        size: number of documents.
        general_fraction: share of body words drawn from the shared
            general pool (creates cross-collection overlap).
        spanish_fraction: share of documents written in Spanish.
        body_words: (min, max) body length in words.
        seed: RNG seed; two specs with equal seeds and parameters yield
            identical collections.
        with_abstract: whether documents get an ``abstract`` field
            (the optional field of §3.1).
    """

    name: str
    topics: dict[str, float]
    size: int = 100
    general_fraction: float = 0.25
    spanish_fraction: float = 0.0
    body_words: tuple[int, int] = (60, 180)
    seed: int = 0
    with_abstract: bool = True

    def validate(self) -> None:
        unknown = set(self.topics) - set(V.TOPICS)
        if unknown:
            raise ValueError(f"unknown topics: {sorted(unknown)}")
        if not 0.0 <= self.general_fraction <= 1.0:
            raise ValueError("general_fraction must be in [0, 1]")
        if not 0.0 <= self.spanish_fraction <= 1.0:
            raise ValueError("spanish_fraction must be in [0, 1]")


@dataclass
class _Sampler:
    """Zipf-weighted word sampler over a fixed pool."""

    pool: list[str]
    rng: random.Random
    exponent: float = 1.0
    _weights: list[float] = dataclass_field(default_factory=list)

    def __post_init__(self) -> None:
        # Shuffle once so the Zipf head differs between collections
        # sharing a topic (different seeds -> different frequent words).
        self.pool = list(self.pool)
        self.rng.shuffle(self.pool)
        self._weights = zipf_weights(len(self.pool), self.exponent)

    def take(self, count: int) -> list[str]:
        return self.rng.choices(self.pool, weights=self._weights, k=count)


def generate_collection(spec: CollectionSpec) -> list[Document]:
    """Generate the documents of one collection, deterministically."""
    spec.validate()
    rng = random.Random(spec.seed)

    topic_names = sorted(spec.topics)
    topic_weights = [spec.topics[name] for name in topic_names]
    samplers = {
        name: _Sampler(V.TOPICS[name], random.Random(rng.random()))
        for name in topic_names
    }
    general = _Sampler(V.GENERAL_WORDS, random.Random(rng.random()))
    spanish = _Sampler(V.SPANISH_WORDS, random.Random(rng.random()))

    documents: list[Document] = []
    for index in range(spec.size):
        is_spanish = rng.random() < spec.spanish_fraction
        topic = rng.choices(topic_names, weights=topic_weights, k=1)[0]
        if is_spanish:
            body_pool: _Sampler = spanish
        else:
            body_pool = samplers[topic]

        length = rng.randint(*spec.body_words)
        n_general = int(length * spec.general_fraction)
        words = body_pool.take(length - n_general) + general.take(n_general)
        rng.shuffle(words)

        title_words = body_pool.take(2)
        templates = V.SPANISH_TITLE_TEMPLATES if is_spanish else V.TITLE_TEMPLATES
        template = rng.choice(templates)
        title = template.format(w1=title_words[0].capitalize(), w2=title_words[1])

        author = "{0} {1}".format(
            rng.choice(V.AUTHOR_POOL["first"]), rng.choice(V.AUTHOR_POOL["last"])
        )
        # Dates span 1994-1996, the paper's era.
        date = "199{0}-{1:02d}-{2:02d}".format(
            rng.randint(4, 6), rng.randint(1, 12), rng.randint(1, 28)
        )
        linkage = f"http://{spec.name.lower()}.example.org/doc{index:04d}.html"

        doc_fields = {
            F.TITLE: title,
            F.AUTHOR: author,
            F.BODY_OF_TEXT: " ".join(words),
            F.DATE_LAST_MODIFIED: date,
            F.LINKAGE_TYPE: "text/html",
            F.LANGUAGES: "es" if is_spanish else "en-US",
        }
        if spec.with_abstract:
            doc_fields[F.ABSTRACT] = " ".join(words[: min(25, len(words))])
        if rng.random() < 0.3:
            # Occasional cross references exercise the Basic-1 field.
            target = rng.randrange(spec.size)
            doc_fields[F.CROSS_REFERENCE_LINKAGE] = (
                f"http://{spec.name.lower()}.example.org/doc{target:04d}.html"
            )

        documents.append(
            Document(linkage, doc_fields, language="es" if is_spanish else "en")
        )
    return documents


#: Total body-word draws per generated summary — the word mass whose
#: Zipf head shapes the summary statistics.
_WORDS_PER_SOURCE = 1200


@dataclass(frozen=True)
class SummaryPopulationSpec:
    """Recipe for a federation-sized *population of content summaries*.

    Selection never reads documents — only summaries — so benchmarking
    it at a thousand sources does not require materializing a thousand
    document collections.  This spec drives a summary-level generator:
    each source draws its word mass Zipf-style straight from its topic
    pools (the same pools and skew :func:`generate_collection` uses),
    and the counts become a :class:`SContentSummary` directly.

    Attributes:
        n_sources: how many sources to fabricate.
        topics_per_source: topics mixed into each source (cycled over
            :data:`repro.corpus.vocabulary.TOPICS` deterministically).
        docs_per_source: inclusive (min, max) document-count range.
        general_fraction: share of draws from the shared general pool
            (cross-source overlap, exactly as in document generation).
        seed: master RNG seed.
    """

    n_sources: int
    topics_per_source: int = 1
    docs_per_source: tuple[int, int] = (40, 400)
    general_fraction: float = 0.15
    seed: int = 0

    def validate(self) -> None:
        if self.n_sources <= 0:
            raise ValueError("n_sources must be positive")
        if not 1 <= self.topics_per_source <= len(V.TOPICS):
            raise ValueError("topics_per_source out of range")
        if not 0.0 <= self.general_fraction <= 1.0:
            raise ValueError("general_fraction must be in [0, 1]")


def generate_source_summaries(
    spec: SummaryPopulationSpec,
) -> dict[str, SContentSummary]:
    """``source id → content summary`` for a whole synthetic federation.

    Deterministic for a given spec.  Document frequencies are derived
    from the sampled occurrence counts under a mild within-document
    clustering assumption (a word seen c times lands in roughly 3c/4
    distinct documents, capped by both c and the document count), which
    keeps df ≤ postings and df ≤ num_docs — the invariants GlOSS-style
    selectors lean on.
    """
    spec.validate()
    rng = random.Random(spec.seed)
    topic_names = sorted(V.TOPICS)
    summaries: dict[str, SContentSummary] = {}
    for index in range(spec.n_sources):
        source_rng = random.Random(rng.random())
        picked = [
            topic_names[(index + offset) % len(topic_names)]
            for offset in range(spec.topics_per_source)
        ]
        n_general = int(_WORDS_PER_SOURCE * spec.general_fraction)
        n_topical = _WORDS_PER_SOURCE - n_general
        words: list[str] = []
        per_topic = n_topical // len(picked)
        for topic in picked:
            sampler = _Sampler(V.TOPICS[topic], source_rng)
            words.extend(sampler.take(per_topic))
        if n_general:
            words.extend(_Sampler(V.GENERAL_WORDS, source_rng).take(n_general))
        num_docs = source_rng.randint(*spec.docs_per_source)
        counts = Counter(words)
        entries = [
            SummaryEntryLine(
                word,
                postings,
                max(1, min(num_docs, postings, (3 * postings) // 4 + 1)),
            )
            for word, postings in counts.items()
        ]
        # Most frequent first, then alphabetical — the export order
        # build_content_summary produces.
        entries.sort(key=lambda entry: (-entry.postings, entry.word))
        summaries[f"Source-{index:04d}"] = SContentSummary(
            num_docs=num_docs,
            sections=(SummarySection("body-of-text", "en", tuple(entries)),),
        )
    return summaries
