"""Shared builders for the broker-subsystem suite."""

import random

from repro.broker import build_hierarchy
from repro.metasearch.summary_index import SummaryIndex
from repro.starts.errors import ProtocolError
from repro.starts.metadata import SContentSummary, SummaryEntryLine, SummarySection
from repro.transport import TransportError, TransportTimeout

VOCABULARY = ["databases", "retrieval", "networks", "medicine", "systems", "query"]


def make_summary(num_docs, words, language="en", **flags):
    entries = tuple(
        SummaryEntryLine(word, postings, df)
        for word, (postings, df) in sorted(words.items())
    )
    return SContentSummary(
        num_docs=num_docs,
        sections=(SummarySection("body-of-text", language, entries),),
        **flags,
    )


def demo_population(n_sources=24, seed=5):
    """A deterministic handcrafted federation over a tiny vocabulary."""
    rng = random.Random(seed)
    population = {}
    for index in range(n_sources):
        words = {}
        for word in VOCABULARY:
            if rng.random() < 0.55:
                postings = rng.randint(1, 200)
                words[word] = (postings, rng.randint(1, postings))
        population[f"Src-{index:03d}"] = make_summary(rng.randint(1, 120), words)
    return population


def populated(n_leaves, population, **kwargs):
    """A fresh hierarchy fed the population through the delta stream."""
    root = build_hierarchy(n_leaves, **kwargs)
    for source_id in sorted(population):
        root.apply_delta(source_id, population[source_id])
    return root


def flat_index(population):
    return SummaryIndex.from_summaries(population)


#: what a leaf that is not this process can do to the root: the typed
#: errors a wire raises, by the name the ``select`` span reports.
RAISES = {
    "dead": TransportError,
    "hangs": TransportTimeout,
    "garbage": ProtocolError,
}


class FaultyLeaf:
    """A :class:`~repro.broker.LeafHandle` over a real leaf that fails a
    consultation the way ``fault`` says; deltas always arrive."""

    def __init__(self, leaf):
        self.leaf, self.leaf_id, self.fault = leaf, leaf.leaf_id, "none"
        self.apply_delta = leaf.apply_delta

    def _consulted(self):
        if self.fault != "none":
            raise RAISES[self.fault](f"{self.leaf_id} is {self.fault}")
        return self.leaf

    def probe(self, terms, k):
        return self._consulted().probe(terms, k)

    def select_candidates(self, selector, terms, k, stats):
        return self._consulted().select_candidates(selector, terms, k, stats)
