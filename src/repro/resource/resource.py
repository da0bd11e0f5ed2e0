"""The resource abstraction (§3, §4.3.3 and Figure 1 of the paper).

A resource (think Knight-Ridder's Dialog) contains one or more sources.
A client queries *one* source of the resource and may name other local
sources in the query's ``Sources`` attribute; the resource evaluates
the query at all of them and — because it sees every local result —
eliminates duplicate documents, "which would be difficult for the
metasearcher to do if it queried all of the sources independently."

Duplicates are detected by linkage (URL).  A merged document keeps the
highest raw score among its copies — scores within one resource share
a scale only if the sources share an engine, so the resource also
records every originating source in the document's ``Sources`` list,
letting the metasearcher decide for itself.
"""

from __future__ import annotations

from collections.abc import Callable

from repro.starts.errors import UnknownSourceError
from repro.starts.metadata import SResource
from repro.starts.query import SQuery
from repro.starts.results import SQRDocument, SQResults
from repro.source.source import StartsSource

__all__ = ["Resource"]


class Resource:
    """A named group of sources with resource-side result merging."""

    def __init__(self, name: str, sources: list[StartsSource] | None = None) -> None:
        self.name = name
        self._sources: dict[str, StartsSource] = {}
        for source in sources or []:
            self.add_source(source)

    def add_source(self, source: StartsSource) -> None:
        if source.source_id in self._sources:
            raise ValueError(f"duplicate source id: {source.source_id!r}")
        self._sources[source.source_id] = source

    def source(self, source_id: str) -> StartsSource:
        try:
            return self._sources[source_id]
        except KeyError:
            raise UnknownSourceError(
                f"resource {self.name!r} has no source {source_id!r}"
            ) from None

    def source_ids(self) -> list[str]:
        return sorted(self._sources)

    def __len__(self) -> int:
        return len(self._sources)

    def __contains__(self, source_id: str) -> bool:
        return source_id in self._sources

    # -- querying (Figure 1) -----------------------------------------------

    def search(self, source_id: str, query: SQuery) -> SQResults:
        """Evaluate ``query`` at ``source_id`` plus ``query.sources``.

        The query's ``Sources`` attribute names *additional* local
        sources.  Results are merged with duplicate elimination; the
        actual expressions reported are those of the entry source
        (per-source actual queries can be obtained by querying each
        source individually).

        Raises:
            UnknownSourceError: if any named source is absent.
        """
        entry = self.source(source_id)
        extra = [self.source(name) for name in query.sources if name != source_id]

        entry_result = entry.search(query)
        if not extra:
            return entry_result

        merged: dict[str, SQRDocument] = {}
        order: list[str] = []
        all_sources: list[str] = []
        for result in [entry_result, *(source.search(query) for source in extra)]:
            for name in result.sources:
                if name not in all_sources:
                    all_sources.append(name)
            for document in result.documents:
                existing = merged.get(document.linkage)
                if existing is None:
                    merged[document.linkage] = document
                    order.append(document.linkage)
                else:
                    merged[document.linkage] = _merge_duplicate(existing, document)

        documents = sorted(
            (merged[linkage] for linkage in order),
            key=lambda doc: -doc.raw_score,
        )
        documents = documents[: query.max_number_documents]
        return SQResults(
            sources=tuple(all_sources),
            actual_filter_expression=entry_result.actual_filter_expression,
            actual_ranking_expression=entry_result.actual_ranking_expression,
            documents=tuple(documents),
        )

    # -- metadata (Example 12) ------------------------------------------------

    def describe(self, source_base: Callable[[str], str] | None = None) -> SResource:
        """The SResource object: source list with metadata URLs, under
        each source's ``base_url`` — or under ``source_base(source_id)``,
        for sources served somewhere else."""
        base = source_base or (lambda source_id: self._sources[source_id].base_url)
        return SResource(
            source_list=tuple(
                (source_id, f"{base(source_id)}/meta")
                for source_id in self.source_ids()
            )
        )

    def __repr__(self) -> str:
        return f"Resource({self.name!r}, sources={self.source_ids()})"


def _merge_duplicate(first: SQRDocument, second: SQRDocument) -> SQRDocument:
    """Collapse two copies of the same document into one entry.

    Keeps the richer field set and the higher raw score, and unions the
    ``Sources`` lists — exactly what lets a metasearcher see that a
    document appeared in several local sources.
    """
    better, other = (first, second) if first.raw_score >= second.raw_score else (second, first)
    sources = better.sources + tuple(
        name for name in other.sources if name not in better.sources
    )
    fields = dict(other.fields)
    fields.update(better.fields)
    return SQRDocument(
        linkage=better.linkage,
        raw_score=better.raw_score,
        sources=sources,
        fields=fields,
        term_stats=better.term_stats or other.term_stats,
        doc_size=better.doc_size,
        doc_count=better.doc_count,
    )
