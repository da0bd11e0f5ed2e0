"""Client-side query translation (§3.1, §4.1; ref [3]).

"A metasearcher would have to translate the original query to adjust it
to each source's syntax.  To do this translation, the metasearcher
needs to know the characteristics of each source."  With STARTS those
characteristics arrive as MBasic-1 metadata, so translation becomes
mechanical: rebuild the source's capability declaration from its
metadata and prune the query the same way the source itself would —
but *before* sending it, so the metasearcher knows exactly what will
run, can decide a source is not worth querying at all, and can route
"The Who"-style queries only to sources whose stop-word processing can
be disabled.
"""

from __future__ import annotations

from dataclasses import dataclass, field as dataclass_field, replace

from repro.source.capabilities import SourceCapabilities
from repro.source.execution import QueryTranslator
from repro.starts.attributes import BASIC1, canonical_field_name
from repro.starts.metadata import SMetaAttributes
from repro.starts.query import SQuery
from repro.text.analysis import Analyzer
from repro.text.stopwords import StopWordList

__all__ = ["capabilities_from_metadata", "TranslationReport", "ClientTranslator"]


def capabilities_from_metadata(metadata: SMetaAttributes) -> SourceCapabilities:
    """Reconstruct a capability declaration from MBasic-1 metadata.

    Required Basic-1 fields are always included (sources "must
    recognize" them even when not listed under FieldsSupported).
    Prox support is not an MBasic-1 attribute, so it is assumed; an
    unsupporting source degrades it server-side and reports the actual
    query.
    """
    fields: dict[str, tuple[str, ...]] = {
        canonical_field_name(name): () for name in BASIC1.required_fields()
    }
    for ref, languages in metadata.fields_supported:
        fields[ref.name] = languages
    modifiers = {ref.name: languages for ref, languages in metadata.modifiers_supported}
    combinations: frozenset[tuple[str, str]] | None = None
    if metadata.field_modifier_combinations:
        combinations = frozenset(
            (field_ref.name, modifier_ref.name)
            for field_ref, modifier_ref in metadata.field_modifier_combinations
        )
    return SourceCapabilities(
        fields=fields,
        modifiers=modifiers,
        combinations=combinations,
        query_parts=metadata.query_parts_supported or "RF",
        supports_prox=True,
        turn_off_stop_words=metadata.turn_off_stop_words,
    )


def translation_target(metadata: SMetaAttributes) -> tuple[SourceCapabilities, Analyzer]:
    """What translating for one source takes from its metadata: the
    capability declaration, and an analyzer over the source's own stop
    list, so the client can predict stop-word elimination.  Neither
    depends on the query, so a caller that keeps the metadata can keep
    these beside it."""
    stop_list = StopWordList(metadata.stop_word_list, name=metadata.source_id)
    analyzer = Analyzer(stop_words={"en": stop_list, "es": stop_list})
    return capabilities_from_metadata(metadata), analyzer


@dataclass
class TranslationReport:
    """What the client-side translation changed for one source."""

    source_id: str
    dropped: list[str] = dataclass_field(default_factory=list)
    filter_survived: bool = True
    ranking_survived: bool = True
    stop_words_preserved: bool = True

    def is_lossless(self) -> bool:
        return not self.dropped and self.stop_words_preserved


class ClientTranslator:
    """Pre-translates queries for each source from its metadata.

    Args:
        rewriter: optional predicate rewriter (ref [3]/[4] of the
            paper).  When provided and a content summary is available,
            modifiers the source does not support are *emulated* by
            expansion over the summary vocabulary instead of dropped.
    """

    def __init__(self, rewriter=None) -> None:
        self._rewriter = rewriter

    def translate(
        self,
        query: SQuery,
        metadata: SMetaAttributes,
        summary=None,
        target: tuple[SourceCapabilities, Analyzer] | None = None,
    ) -> tuple[SQuery, TranslationReport]:
        """The per-source query and a report of everything lost.

        The returned query is what the metasearcher actually sends; its
        expressions are already pruned to the source's declared
        capabilities, so the source's actual-query report should match
        it (tests assert exactly that).  ``target`` is a kept
        :func:`translation_target` of ``metadata``.
        """
        capabilities, analyzer = target or translation_target(metadata)
        report = TranslationReport(metadata.source_id)

        filter_expression = query.filter_expression
        ranking_expression = query.ranking_expression
        if self._rewriter is not None and summary is not None:
            filter_expression, filter_rewrites = self._rewriter.rewrite(
                filter_expression, metadata, summary
            )
            ranking_expression, ranking_rewrites = self._rewriter.rewrite(
                ranking_expression, metadata, summary
            )
            report.dropped.extend(
                f"rewritten: {note}"
                for note in filter_rewrites.rewritten + ranking_rewrites.rewritten
            )

        translator = QueryTranslator(capabilities, analyzer, query.default_language)

        drop_stop_words = query.drop_stop_words
        if not capabilities.turn_off_stop_words and not query.drop_stop_words:
            # The user asked to keep stop words but this source cannot.
            report.stop_words_preserved = False
            drop_stop_words = True

        # Pruning only: the engine IR is the source's business.
        filter_outcome = translator.prune(
            filter_expression, drop_stop_words, ranking=False
        )
        ranking_outcome = translator.prune(
            ranking_expression, drop_stop_words, ranking=True
        )
        report.dropped.extend(filter_outcome.dropped)
        report.dropped.extend(ranking_outcome.dropped)
        report.filter_survived = (
            filter_expression is None or filter_outcome.actual is not None
        )
        report.ranking_survived = (
            ranking_expression is None or ranking_outcome.actual is not None
        )

        translated = replace(
            query,
            filter_expression=filter_outcome.actual,
            ranking_expression=ranking_outcome.actual,
            drop_stop_words=drop_stop_words,
        )
        return translated, report

    def worth_querying(self, query: SQuery, metadata: SMetaAttributes) -> bool:
        """False when nothing of the query would survive at the source."""
        translated, _ = self.translate(query, metadata)
        return (
            translated.filter_expression is not None
            or translated.ranking_expression is not None
        )
