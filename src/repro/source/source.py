"""StartsSource: a complete STARTS-compliant document source.

Wraps a search engine behind the protocol: accepts :class:`SQuery`
objects, down-translates them against declared capabilities, executes,
applies the answer specification (answer fields, sort order, minimum
score, maximum documents) and writes the result stream — the actual
query and per-term statistics — straight from the engine's hits
(:meth:`StartsSource.respond`; ``search`` is its decode).  Also exports
the two metadata blobs (MBasic-1 attributes and the content summary)
and the sample-database results.  Sources are sessionless and
stateless: every query is self-contained.
"""

from __future__ import annotations

from collections.abc import Iterable
from dataclasses import replace
from operator import attrgetter

from repro.engine import fields as F
from repro.engine.documents import Document
from repro.engine.search import EngineHit, SearchEngine
from repro.source.capabilities import SourceCapabilities
from repro.source.execution import QueryTranslator
from repro.source.sample import SampleResults, run_sample_queries
from repro.source.scan import ScanEntry, ScanResponse
from repro.source.summaries import build_content_summary
from repro.starts.ast import STerm
from repro.starts.attributes import FieldRef, ModifierRef, canonical_field_name
from repro.starts.lstring import LString
from repro.starts.metadata import SContentSummary, SMetaAttributes
from repro.starts.query import PROTOCOL_VERSION, SCORE_SORT_FIELD, SortKey, SQuery
from repro.starts.results import (
    SQResults,
    document_head,
    term_stats_row,
    write_document,
    write_header,
)
from repro.starts.soif import attribute_line
from repro.text.analysis import Analyzer

__all__ = ["StartsSource"]

_DEFAULT_SORT = (SortKey(SCORE_SORT_FIELD, descending=True),)
_hit_score = attrgetter("score")


def order_answers(answers: Iterable, sort_keys, score, stored) -> list:
    """``answers`` ordered by ``sort_keys`` (score-descending if none),
    least-significant key first.  ``score(answer)`` is an answer's raw
    score; a field key reads ``stored(answer)``, its stored document,
    whether or not the query asked for that field back."""
    ordered = list(answers)
    for key in reversed(sort_keys or _DEFAULT_SORT):
        if key.field == SCORE_SORT_FIELD:
            ordered.sort(key=score, reverse=key.descending)
        else:
            name = canonical_field_name(key.field)
            ordered.sort(
                key=lambda answer: _field(stored(answer), name), reverse=key.descending
            )
    return ordered


def _field(document: Document, name: str) -> str:
    return document.linkage if name == F.LINKAGE else document.get(name)


class StartsSource:
    """One source: engine + capabilities + protocol endpoints.

    Args:
        source_id: the id used in Sources attributes (e.g. "Source-1").
        documents: initial collection, indexed immediately.
        engine: a pre-configured engine; defaults to cosine tf·idf with
            the default analyzer.
        capabilities: declared capabilities; defaults to full Basic-1.
        base_url: prefix for the linkage/summary/sample URLs exported
            in metadata.
        source_name / abstract / access_constraints / contact /
        date_changed: optional MBasic-1 attributes, passed through.
    """

    def __init__(
        self,
        source_id: str,
        documents: list[Document] | None = None,
        engine: SearchEngine | None = None,
        capabilities: SourceCapabilities | None = None,
        base_url: str | None = None,
        source_name: str = "",
        abstract: str = "",
        access_constraints: str = "",
        contact: str = "",
        date_changed: str = "",
        export_term_stats: bool = True,
        native_syntax=None,
    ) -> None:
        self.source_id = source_id
        self.engine = engine if engine is not None else SearchEngine()
        self.capabilities = capabilities or SourceCapabilities.full_basic1()
        self.base_url = base_url or f"http://{source_id.lower()}.example.org"
        self.source_name = source_name or source_id
        self.abstract = abstract
        self.access_constraints = access_constraints
        self.contact = contact
        self.date_changed = date_changed
        # §4.2: some engines lose per-term statistics by result time and
        # cannot export TermStats; their clients must fall back to the
        # SampleDatabaseResults calibration.
        self.export_term_stats = export_term_stats
        # Parser for the engine's native query language (enables the
        # Free-form-text pass-through field).
        self.native_syntax = native_syntax
        # (analyzer, ranking, results) of the last sample_results() call.
        self._sample: tuple | None = None
        if self.engine.ranking is None and self.capabilities.supports_ranking():
            # A Boolean-only engine cannot honour an RF declaration.
            self.capabilities = replace(self.capabilities, query_parts="F")
        if documents:
            self.engine.add_all(documents)

    def add_documents(
        self, documents: list[Document], date_changed: str | None = None
    ) -> int:
        """Index additional documents (a periodic collection update).

        Updates ``DateChanged`` so harvesters see the source moved; the
        next metadata fetch reflects the new statistics (sources are
        stateless per query, but collections do evolve between
        metadata exports — §4.3).

        Returns the new document count.
        """
        self.engine.add_all(documents)
        if date_changed is not None:
            self.date_changed = date_changed
        return self.document_count

    def remove_documents(
        self, linkages: list[str], date_changed: str | None = None
    ) -> int:
        """Remove documents by URL; returns how many were removed."""
        removed = self.engine.remove(*linkages)
        if removed and date_changed is not None:
            self.date_changed = date_changed
        return removed

    @property
    def analyzer(self) -> Analyzer:
        return self.engine.analyzer

    @property
    def document_count(self) -> int:
        return self.engine.document_count

    # -- querying -------------------------------------------------------

    def search(self, query: SQuery) -> SQResults:
        """Evaluate a STARTS query at this single source: the decode of
        :meth:`respond`, exactly what a client of the query endpoint sees."""
        return SQResults.from_soif_stream(self.respond(query), query)

    def respond(self, query: SQuery) -> bytes:
        """Evaluate a STARTS query at this single source: the result
        stream's UTF-8 bytes, written straight from the engine's hits and
        the stored documents."""
        query.validate()
        translator = QueryTranslator(
            self.capabilities,
            self.analyzer,
            query.default_language,
            native_syntax=self.native_syntax,
        )
        drop_stop_words = query.drop_stop_words
        if not self.capabilities.turn_off_stop_words:
            drop_stop_words = True
        filtered = translator.translate_filter(query.filter_expression, drop_stop_words)
        ranked = translator.translate_ranking(query.ranking_expression, drop_stop_words)

        limit = query.max_number_documents
        if self.capabilities.result_cap is not None:
            limit = min(limit, self.capabilities.result_cap)
        store = self.engine.store
        filter_query, ranking_query = filtered.engine_query, ranked.engine_query
        hits: list[EngineHit] = []
        if filter_query is not None or ranking_query is not None:
            # The engine orders by descending score, then ascending doc id:
            # when every sort key is score-descending (the default), that is
            # the answer's order and the engine truncates to the answer
            # limit itself — the tail is never materialized and never gets
            # TermStats.  Any other sort order needs the full result first.
            score_ordered = all(
                key.field == SCORE_SORT_FIELD and key.descending
                for key in query.sort_keys
            )
            hits = self.engine.search(
                filter_query=filter_query,
                ranking_query=ranking_query,
                top_k=limit if score_ordered else None,
                min_score=query.min_document_score,
            )
            if not score_ordered:
                hits = order_answers(
                    hits, query.sort_keys, _hit_score, lambda hit: store[hit.doc_id]
                )
            hits = hits[:limit]

        lines: list[str] = []
        write_header(
            lines,
            PROTOCOL_VERSION,
            self.source_id,
            filtered.actual,
            ranked.actual,
            len(hits),
        )
        # What depends only on the response is done once: the canonical
        # answer-field names (``linkage`` is always written), the lines
        # every document shares and, in a memo that dies with the call,
        # each distinct ranking term's serialization.
        wanted = dict.fromkeys(map(canonical_field_name, query.answer_fields))
        wanted.pop(F.LINKAGE, None)
        head = document_head(PROTOCOL_VERSION)
        sources = attribute_line("Sources", self.source_id)
        terms: dict[tuple[str, str], str] = {}
        for hit in hits:
            document = store[hit.doc_id]
            get = document.fields.get
            rows = []
            for stats in hit.term_stats if self.export_term_stats else ():
                key = (stats.field, stats.text)
                term = terms.get(key)
                if term is None:
                    term = STerm(LString(stats.text), FieldRef(stats.field)).serialize()
                    terms[key] = term
                tf, df = stats.term_frequency, stats.document_frequency
                rows.append(term_stats_row(term, tf, stats.term_weight, df))
            write_document(
                lines, head, hit.score, sources, document.linkage,
                [(name, value) for name in wanted if (value := get(name))],
                "\n".join(rows), document.size_kbytes(), store.token_count(hit.doc_id),
            )
        return ("\n".join(lines) + "\n").encode("utf-8")

    # -- metadata export ----------------------------------------------------

    def metadata(self) -> SMetaAttributes:
        """The source's MBasic-1 metadata attributes (Example 10)."""
        languages = self._source_languages()
        fields_supported = tuple(
            (FieldRef(name, "basic-1"), langs)
            for name, langs in sorted(self.capabilities.fields.items())
        )
        modifiers_supported = tuple(
            (ModifierRef(name, "basic-1"), langs)
            for name, langs in sorted(self.capabilities.modifiers.items())
        )
        combinations = tuple(
            (FieldRef(field_name, "basic-1"), ModifierRef(modifier_name, "basic-1"))
            for field_name, modifier_name in sorted(self.capabilities.combinations or ())
        )

        ranking = self.engine.ranking
        score_range = (0.0, 0.0) if ranking is None else ranking.score_range
        algorithm_id = "none" if ranking is None else ranking.algorithm_id

        stop_words: list[str] = []
        for language in ("en", "es"):
            stop_list = self.analyzer.stop_words.get(language)
            if stop_list is not None and any(
                tag.startswith(language) for tag in languages
            ):
                stop_words.extend(stop_list)

        return SMetaAttributes(
            source_id=self.source_id,
            fields_supported=fields_supported,
            modifiers_supported=modifiers_supported,
            field_modifier_combinations=combinations,
            query_parts_supported=self.capabilities.query_parts,
            score_range=score_range,
            ranking_algorithm_id=algorithm_id,
            tokenizer_id_list=tuple(
                (self.analyzer.tokenizer.tokenizer_id, language)
                for language in languages
            ),
            sample_database_results=f"{self.base_url}/sample",
            stop_word_list=tuple(stop_words),
            turn_off_stop_words=self.capabilities.turn_off_stop_words,
            source_languages=languages,
            source_name=self.source_name,
            linkage=f"{self.base_url}/query",
            content_summary_linkage=f"{self.base_url}/cont_sum.txt",
            date_changed=self.date_changed,
            abstract=self.abstract,
            access_constraints=self.access_constraints,
            contact=self.contact,
        )

    def _source_languages(self) -> tuple[str, ...]:
        seen: list[str] = []
        for document in self.engine.store:
            tag = document.get(F.LANGUAGES) or document.language
            for language in tag.split():
                if language not in seen:
                    seen.append(language)
        return tuple(seen) if seen else ("en-US",)

    def content_summary(
        self, max_words_per_section: int | None = None
    ) -> SContentSummary:
        """The source's content summary (Example 11)."""
        return build_content_summary(self.engine, max_words_per_section)

    def scan(self, field: str, start_term: str, count: int = 10) -> ScanResponse:
        """Browse the vocabulary of ``field`` from ``start_term`` on.

        The optional Scan extension (after Z39.50's Scan service, §5):
        returns up to ``count`` surface words >= ``start_term`` in
        lexicographic order, each with its postings count and document
        frequency, aggregated over languages.
        """
        canonical = canonical_field_name(field)
        totals: dict[str, list[int]] = {}
        for section_field, _, words in self.engine.index.summary_sections():
            if section_field != canonical:
                continue
            for word, stats in words.items():
                entry = totals.setdefault(word, [0, 0])
                entry[0] += stats.postings
                entry[1] += stats.document_frequency
        selected = [
            ScanEntry(word, postings, df)
            for word, (postings, df) in sorted(totals.items())
            if word >= start_term
        ]
        return ScanResponse(field=canonical, entries=tuple(selected[:count]))

    def sample_results(self) -> SampleResults:
        """Results over the fixed sample collection (§4.2 calibration).

        A fixed sample and fixed queries: the answer depends only on the
        analyzer and the ranking algorithm, never on the collection.  It
        is computed on the first request (not at construction, where
        every source would pay for an export few are asked for) and kept
        with the two objects it was computed from, so a swapped engine
        recomputes.
        """
        analyzer, ranking = self.analyzer, self.engine.ranking
        kept = self._sample
        if kept is None or kept[0] is not analyzer or kept[1] is not ranking:
            results = run_sample_queries(
                lambda: SearchEngine(analyzer=replace(analyzer), ranking=ranking)
            )
            kept = self._sample = (analyzer, ranking, results)
        return kept[2]

    def __repr__(self) -> str:
        return (
            f"StartsSource({self.source_id!r}, {self.document_count} docs, "
            f"parts={self.capabilities.query_parts!r})"
        )
