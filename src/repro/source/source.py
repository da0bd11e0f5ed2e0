"""StartsSource: a complete STARTS-compliant document source.

Wraps a search engine behind the protocol: accepts :class:`SQuery`
objects, down-translates them against declared capabilities, executes,
applies the answer specification (answer fields, sort order, minimum
score, maximum documents) and returns :class:`SQResults` carrying the
actual query and per-term statistics.  Also exports the two metadata
blobs (MBasic-1 attributes and the content summary) and the
sample-database results.  Sources are sessionless and stateless: every
``search`` call is self-contained.
"""

from __future__ import annotations

from dataclasses import replace

from repro.engine import fields as F
from repro.engine.documents import Document
from repro.engine.ranking import RankingAlgorithm
from repro.engine.search import EngineHit, SearchEngine
from repro.source.capabilities import SourceCapabilities
from repro.source.execution import QueryTranslator
from repro.source.sample import SampleResults, run_sample_queries
from repro.source.summaries import build_content_summary
from repro.starts.ast import STerm
from repro.starts.attributes import FieldRef, ModifierRef, canonical_field_name
from repro.starts.lstring import LString
from repro.starts.metadata import SContentSummary, SMetaAttributes
from repro.starts.query import SCORE_SORT_FIELD, SQuery
from repro.starts.results import SQRDocument, SQResults, TermStats
from repro.text.analysis import Analyzer

__all__ = ["StartsSource"]


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
        removed = sum(1 for linkage in linkages if self.engine.remove(linkage))
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
        """Evaluate a STARTS query at this single source."""
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

        filter_outcome = translator.translate_filter(
            query.filter_expression, drop_stop_words
        )
        ranking_outcome = translator.translate_ranking(
            query.ranking_expression, drop_stop_words
        )

        if filter_outcome.engine_query is None and ranking_outcome.engine_query is None:
            return SQResults(
                sources=(self.source_id,),
                actual_filter_expression=filter_outcome.actual,
                actual_ranking_expression=ranking_outcome.actual,
                documents=(),
            )

        limit = query.max_number_documents
        if self.capabilities.result_cap is not None:
            limit = min(limit, self.capabilities.result_cap)

        # When the answer specification orders by score (the default),
        # the engine can truncate to the answer limit itself — the tail
        # is never materialized and never gets TermStats.  Any other
        # sort order needs the full result before sorting.
        min_score = 0.0
        if ranking_outcome.engine_query is not None:
            min_score = query.min_document_score
        hits = self.engine.search(
            filter_query=filter_outcome.engine_query,
            ranking_query=ranking_outcome.engine_query,
            top_k=limit if self._score_ordered(query) else None,
            min_score=min_score,
        )

        documents = self._to_documents(hits, query)
        documents = self._sort_documents(documents, query)
        documents = documents[:limit]

        return SQResults(
            sources=(self.source_id,),
            actual_filter_expression=filter_outcome.actual,
            actual_ranking_expression=ranking_outcome.actual,
            documents=tuple(documents),
        )

    def _to_documents(self, hits: list[EngineHit], query: SQuery) -> list[SQRDocument]:
        """One response's documents.  What depends only on the response
        is done once, here: the canonical answer-field names (``linkage``
        is always present on SQRDocument), the ``Sources`` tuple and one
        ``STerm`` per distinct ranking term — a memo that dies with the call.
        """
        store = self.engine.store
        sources = (self.source_id,)
        wanted = dict.fromkeys(map(canonical_field_name, query.answer_fields))
        wanted.pop(F.LINKAGE, None)
        terms: dict[tuple[str, str], STerm] = {}
        documents = []
        for hit in hits:
            document = store[hit.doc_id]
            get = document.fields.get
            term_stats = []
            for stats in hit.term_stats if self.export_term_stats else ():
                key = (stats.field, stats.text)
                term = terms.get(key)
                if term is None:
                    term = STerm(LString(stats.text), FieldRef(stats.field))
                    terms[key] = term
                term_stats.append(
                    TermStats(
                        term,
                        stats.term_frequency,
                        stats.term_weight,
                        stats.document_frequency,
                    )
                )
            documents.append(
                SQRDocument(
                    linkage=document.linkage,
                    raw_score=hit.score,
                    sources=sources,
                    fields={name: value for name in wanted if (value := get(name))},
                    term_stats=tuple(term_stats),
                    doc_size=document.size_kbytes(),
                    doc_count=store.token_count(hit.doc_id),
                )
            )
        return documents

    @staticmethod
    def _score_ordered(query: SQuery) -> bool:
        """True when the requested sort preserves the engine's order.

        The engine returns hits by descending score with ascending doc
        id tie-breaks; score-descending sort keys (including the empty
        sort) keep that order, so engine-side top-k truncation returns
        exactly the documents the full pipeline would.
        """
        return all(
            key.field == SCORE_SORT_FIELD and key.descending
            for key in query.sort_keys
        )

    def _sort_documents(
        self, documents: list[SQRDocument], query: SQuery
    ) -> list[SQRDocument]:
        """Apply the query's sort keys, score-descending by default.

        Multi-key sorts are applied least-significant key first (stable
        sort composition).
        """
        ordered = list(documents)
        for key in reversed(query.sort_keys):
            if key.field == SCORE_SORT_FIELD:
                ordered.sort(key=lambda doc: doc.raw_score, reverse=key.descending)
            else:
                field_name = canonical_field_name(key.field)
                ordered.sort(
                    key=lambda doc: doc.get(field_name, ""), reverse=key.descending
                )
        return ordered

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
        combinations: tuple[tuple[FieldRef, ModifierRef], ...] = ()
        if self.capabilities.combinations is not None:
            combinations = tuple(
                (FieldRef(field_name, "basic-1"), ModifierRef(modifier_name, "basic-1"))
                for field_name, modifier_name in sorted(self.capabilities.combinations)
            )

        ranking: RankingAlgorithm | None = self.engine.ranking
        if ranking is not None:
            score_range = ranking.score_range
            algorithm_id = ranking.algorithm_id
        else:
            score_range = (0.0, 0.0)
            algorithm_id = "none"

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

    def scan(self, field: str, start_term: str, count: int = 10) -> "ScanResponse":
        """Browse the vocabulary of ``field`` from ``start_term`` on.

        The optional Scan extension (after Z39.50's Scan service, §5):
        returns up to ``count`` surface words >= ``start_term`` in
        lexicographic order, each with its postings count and document
        frequency, aggregated over languages.
        """
        from repro.source.scan import ScanEntry, ScanResponse

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
                lambda: SearchEngine(
                    analyzer=Analyzer(
                        tokenizer=analyzer.tokenizer,
                        stop_words=analyzer.stop_words,
                        stem=analyzer.stem,
                        case_sensitive=analyzer.case_sensitive,
                        can_disable_stop_words=analyzer.can_disable_stop_words,
                        index_stop_words=analyzer.index_stop_words,
                    ),
                    ranking=ranking,
                )
            )
            kept = self._sample = (analyzer, ranking, results)
        return kept[2]

    def __repr__(self) -> str:
        return (
            f"StartsSource({self.source_id!r}, {self.document_count} docs, "
            f"parts={self.capabilities.query_parts!r})"
        )
