"""GlOSS broker hierarchies (ref [8] of the paper).

"Generalizing GlOSS for vector-space databases *and broker hierarchies*"
— with thousands of sources, a flat metasearcher cannot compare every
summary per query.  Instead, brokers aggregate the content summaries of
the sources (or brokers) below them; a query descends the hierarchy,
expanding only the most promising branches, and touches far fewer
summaries than a flat scan while selecting nearly the same sources.

Aggregation is exact for the statistics GlOSS uses: document
frequencies, postings counts and document counts are additive across
disjoint collections, so a broker's summary *is* the summary of the
union collection.
"""

from __future__ import annotations

import heapq
import itertools
from collections import defaultdict
from collections.abc import Sequence
from dataclasses import dataclass, field as dataclass_field

from repro.metasearch.selection import SourceSelector, VGlossMax
from repro.starts.metadata import SContentSummary, SummaryEntryLine, SummarySection

__all__ = ["merge_summaries", "BrokerNode", "HierarchicalSelector"]


def merge_summaries(summaries: Sequence[SContentSummary]) -> SContentSummary:
    """The exact content summary of the union of disjoint collections.

    Postings and document frequencies add per (field, language, word);
    ``NumDocs`` adds.  Header flags are taken as the *weakest* claims
    (e.g. the merged list is stemmed only if every input was), since a
    broker can only promise what all of its children provide — but only
    inputs that actually make a claim participate: an *empty* summary
    (no sections and no documents) describes nothing, so its default
    flags must not weaken the merge.  An empty-summary-only (or empty)
    input list yields the all-defaults empty summary.
    """
    totals: dict[tuple[str, str], dict[str, list[int]]] = defaultdict(
        lambda: defaultdict(lambda: [0, 0])
    )
    for summary in summaries:
        for section in summary.sections:
            bucket = totals[(section.field, section.language)]
            for entry in section.entries:
                bucket[entry.word][0] += max(entry.postings, 0)
                bucket[entry.word][1] += max(entry.document_frequency, 0)

    sections = []
    for (field_name, language), words in sorted(totals.items()):
        entries = tuple(
            SummaryEntryLine(word, postings, df)
            for word, (postings, df) in sorted(
                words.items(), key=lambda item: (-item[1][0], item[0])
            )
        )
        sections.append(SummarySection(field_name, language, entries))

    claiming = [
        summary
        for summary in summaries
        if summary.sections or summary.num_docs > 0
    ]
    if not claiming:
        return SContentSummary(
            num_docs=sum(summary.num_docs for summary in summaries),
            sections=tuple(sections),
        )

    return SContentSummary(
        num_docs=sum(summary.num_docs for summary in summaries),
        sections=tuple(sections),
        stemming=all(summary.stemming for summary in claiming),
        stop_words=all(summary.stop_words for summary in claiming),
        case_sensitive=all(summary.case_sensitive for summary in claiming),
        fields=all(summary.fields for summary in claiming),
        has_postings=all(summary.has_postings for summary in claiming),
        has_document_frequencies=all(
            summary.has_document_frequencies for summary in claiming
        ),
    )


@dataclass
class BrokerNode:
    """One node of a broker hierarchy.

    Leaves carry a source id and its summary; internal nodes carry
    children and lazily compute their aggregate summary.
    """

    name: str
    source_id: str | None = None
    summary: SContentSummary | None = None
    children: list["BrokerNode"] = dataclass_field(default_factory=list)
    _aggregate: SContentSummary | None = dataclass_field(default=None, repr=False)

    @classmethod
    def leaf(cls, source_id: str, summary: SContentSummary) -> "BrokerNode":
        return cls(name=source_id, source_id=source_id, summary=summary)

    @classmethod
    def broker(cls, name: str, children: list["BrokerNode"]) -> "BrokerNode":
        return cls(name=name, children=children)

    def is_leaf(self) -> bool:
        return self.source_id is not None

    def aggregate_summary(self) -> SContentSummary:
        """This node's summary: its own (leaf) or the merged children's."""
        if self.is_leaf():
            assert self.summary is not None
            return self.summary
        if self._aggregate is None:
            self._aggregate = merge_summaries(
                [child.aggregate_summary() for child in self.children]
            )
        return self._aggregate

    def leaves(self) -> list["BrokerNode"]:
        if self.is_leaf():
            return [self]
        found: list[BrokerNode] = []
        for child in self.children:
            found.extend(child.leaves())
        return found


class HierarchicalSelector:
    """Best-first descent of a broker hierarchy.

    Maintains a frontier ordered by the inner selector's goodness of
    each node's aggregate summary; repeatedly expands the best node
    until k leaves have been emitted.  Counts how many summaries were
    scored, the cost a hierarchy is meant to reduce.

    The inner selector must implement per-summary ``score`` (the GlOSS
    family and BySize do); rank-only selectors like CORI need the full
    summary set at once and cannot drive a descent.
    """

    def __init__(self, root: BrokerNode, inner: SourceSelector | None = None) -> None:
        self._root = root
        self._inner = inner or VGlossMax()
        self.summaries_scored = 0

    def select(self, terms: Sequence[str], k: int) -> list[str]:
        """The source ids of the k best leaves, best first."""
        counter = itertools.count()  # tie-breaker for equal goodness
        frontier: list[tuple[float, int, BrokerNode]] = []
        self.summaries_scored = 0

        def push(node: BrokerNode) -> None:
            goodness = self._inner.score(terms, node.aggregate_summary())
            self.summaries_scored += 1
            heapq.heappush(frontier, (-goodness, next(counter), node))

        push(self._root)
        selected: list[str] = []
        while frontier and len(selected) < k:
            _, _, node = heapq.heappop(frontier)
            if node.is_leaf():
                assert node.source_id is not None
                selected.append(node.source_id)
                continue
            for child in node.children:
                push(child)
        return selected
