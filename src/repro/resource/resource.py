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
from operator import attrgetter

from repro.engine.documents import Document
from repro.starts.errors import UnknownSourceError
from repro.starts.metadata import SResource
from repro.starts.query import SQuery
from repro.starts.results import SQRDocument, SQResults
from repro.source.source import StartsSource, order_answers

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
        """The decode of :meth:`respond`, exactly what a client sees."""
        return SQResults.from_soif_stream(self.respond(source_id, query), query)

    def respond(self, source_id: str, query: SQuery) -> bytes:
        """Evaluate ``query`` at ``source_id`` plus ``query.sources``: the
        result stream's UTF-8 bytes.

        The query's ``Sources`` attribute names *additional* local
        sources.  Their results are merged with duplicate elimination and
        put in the query's sort order (a field key reads the stored
        document of the first source that answered with it); the actual
        expressions reported are the entry source's.

        Raises:
            UnknownSourceError: if any named source is absent.
        """
        entry = self.source(source_id)
        extra = [self.source(name) for name in query.sources if name != source_id]
        if not extra:
            return entry.respond(query)

        results = [(source, source.search(query)) for source in (entry, *extra)]
        merged: dict[str, SQRDocument] = {}
        holders: dict[str, StartsSource] = {}
        for source, result in results:
            for document in result.documents:
                existing = merged.get(document.linkage)
                if existing is None:
                    merged[document.linkage] = document
                    holders[document.linkage] = source
                else:
                    merged[document.linkage] = _merge_duplicate(existing, document)
        documents = order_answers(
            merged.values(),
            query.sort_keys,
            attrgetter("raw_score"),
            lambda document: _stored(holders[document.linkage], document.linkage),
        )
        entry_result = results[0][1]
        answer = SQResults(
            sources=tuple(dict.fromkeys(name for _, r in results for name in r.sources)),
            actual_filter_expression=entry_result.actual_filter_expression,
            actual_ranking_expression=entry_result.actual_ranking_expression,
            documents=tuple(documents[: query.max_number_documents]),
        )
        return answer.to_soif_stream().encode("utf-8")

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


def _stored(source: StartsSource, linkage: str) -> Document:
    store = source.engine.store
    return store[store.by_linkage(linkage)]


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
