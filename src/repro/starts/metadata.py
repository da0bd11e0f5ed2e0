"""Source metadata: SMetaAttributes, SContentSummary, SResource (§4.3).

Every STARTS source exports two separately-fetchable "blobs":

1. **Metadata attributes** (§4.3.1) — the MBasic-1 attribute set,
   borrowed from Z39.50 Exp-1 and GILS with new additions; tells a
   metasearcher what the source supports (fields, modifiers, legal
   field-modifier combinations, query parts, score range, ranking
   algorithm id, tokenizers, stop words, ...) and where to find its
   content summary.
2. **Content summary** (§4.3.2) — automatically generated partial data
   about the source's contents: the word list with postings counts and
   document frequencies, grouped by field and language, plus the total
   document count.  "Orders of magnitude smaller than the original
   contents" and the raw material of GlOSS-style source selection.

A **resource** (§4.3.3) exports only its source list with the URLs of
each source's metadata attributes.
"""

from __future__ import annotations

from collections import defaultdict
from collections.abc import Sequence
from dataclasses import dataclass

from repro.starts.attributes import FieldRef, ModifierRef
from repro.starts.errors import SoifSyntaxError
from repro.starts.query import PROTOCOL_VERSION, _number
from repro.starts.soif import SoifObject

__all__ = [
    "MetaAttributeSpec",
    "MBASIC1_ATTRIBUTES",
    "SMetaAttributes",
    "SummaryEntryLine",
    "SummarySection",
    "SContentSummary",
    "merge_summaries",
    "SResource",
]


@dataclass(frozen=True, slots=True)
class MetaAttributeSpec:
    """One row of the paper's MBasic-1 metadata-attribute table."""

    name: str
    required: bool
    new: bool


#: The MBasic-1 table (§4.3.1), transcribed verbatim.
MBASIC1_ATTRIBUTES = [
    MetaAttributeSpec("FieldsSupported", required=True, new=True),
    MetaAttributeSpec("ModifiersSupported", required=True, new=True),
    MetaAttributeSpec("FieldModifierCombinations", required=True, new=True),
    MetaAttributeSpec("QueryPartsSupported", required=False, new=True),
    MetaAttributeSpec("ScoreRange", required=True, new=True),
    MetaAttributeSpec("RankingAlgorithmID", required=True, new=True),
    MetaAttributeSpec("TokenizerIDList", required=False, new=True),
    MetaAttributeSpec("SampleDatabaseResults", required=True, new=True),
    MetaAttributeSpec("StopWordList", required=True, new=True),
    MetaAttributeSpec("TurnOffStopWords", required=True, new=True),
    MetaAttributeSpec("SourceLanguages", required=False, new=False),
    MetaAttributeSpec("SourceName", required=False, new=False),
    MetaAttributeSpec("Linkage", required=True, new=False),
    MetaAttributeSpec("ContentSummaryLinkage", required=True, new=True),
    MetaAttributeSpec("DateChanged", required=False, new=False),
    MetaAttributeSpec("DateExpires", required=False, new=False),
    MetaAttributeSpec("Abstract", required=False, new=False),
    MetaAttributeSpec("AccessConstraints", required=False, new=False),
    MetaAttributeSpec("Contact", required=False, new=False),
]


def _serialize_score(value: float) -> str:
    if value == float("inf"):
        return "+Inf"
    if value == float("-inf"):
        return "-Inf"
    if value == int(value):
        return f"{value:.1f}"
    return f"{value:g}"


def _parse_score(text: str) -> float:
    lowered = text.strip().lower()
    if lowered in ("+inf", "inf", "+infinity", "infinity"):
        return float("inf")
    if lowered in ("-inf", "-infinity"):
        return float("-inf")
    return _number(float, "ScoreRange", text, 0.0)


@dataclass(frozen=True)
class SMetaAttributes:
    """The MBasic-1 metadata-attribute values of one source.

    Attributes mirror the table; see Example 10 for the wire form.
    ``fields_supported`` / ``modifiers_supported`` pair each reference
    with the (possibly empty) list of languages it is supported for.
    ``query_parts_supported`` is ``"R"``, ``"F"`` or ``"RF"``.
    """

    source_id: str
    fields_supported: tuple[tuple[FieldRef, tuple[str, ...]], ...] = ()
    modifiers_supported: tuple[tuple[ModifierRef, tuple[str, ...]], ...] = ()
    field_modifier_combinations: tuple[tuple[FieldRef, ModifierRef], ...] = ()
    query_parts_supported: str = "RF"
    score_range: tuple[float, float] = (0.0, 1.0)
    ranking_algorithm_id: str = ""
    tokenizer_id_list: tuple[tuple[str, str], ...] = ()
    sample_database_results: str = ""
    stop_word_list: tuple[str, ...] = ()
    turn_off_stop_words: bool = True
    source_languages: tuple[str, ...] = ()
    source_name: str = ""
    linkage: str = ""
    content_summary_linkage: str = ""
    date_changed: str = ""
    date_expires: str = ""
    abstract: str = ""
    access_constraints: str = ""
    contact: str = ""
    default_meta_attribute_set: str = "mbasic-1"
    version: str = PROTOCOL_VERSION

    # -- capability checks used by metasearchers ---------------------------

    def supports_field(self, name: str) -> bool:
        return any(ref.name == name for ref, _ in self.fields_supported)

    def supports_modifier(self, name: str) -> bool:
        return any(ref.name == name for ref, _ in self.modifiers_supported)

    def combination_is_legal(self, field_name: str, modifier_name: str) -> bool:
        """Whether (field, modifier) is an allowed pairing at the source.

        Sources list *legal* combinations; an empty list means no
        field+modifier pairing is constrained beyond individual support.
        """
        if not self.field_modifier_combinations:
            return self.supports_field(field_name) and self.supports_modifier(
                modifier_name
            )
        return any(
            ref.name == field_name and modifier.name == modifier_name
            for ref, modifier in self.field_modifier_combinations
        )

    def supports_ranking(self) -> bool:
        return "R" in self.query_parts_supported.upper()

    def supports_filter(self) -> bool:
        return "F" in self.query_parts_supported.upper()

    # -- SOIF encoding (Example 10) ------------------------------------------

    def to_soif(self) -> SoifObject:
        obj = SoifObject("SMetaAttributes")
        obj.add("Version", self.version)
        obj.add("SourceID", self.source_id)
        obj.add("FieldsSupported", _dump_supported(self.fields_supported))
        obj.add("ModifiersSupported", _dump_supported(self.modifiers_supported))
        obj.add(
            "FieldModifierCombinations",
            " ".join(
                f"({ref.serialize()} {modifier.serialize()})"
                for ref, modifier in self.field_modifier_combinations
            ),
        )
        obj.add("QueryPartsSupported", self.query_parts_supported)
        obj.add(
            "ScoreRange",
            f"{_serialize_score(self.score_range[0])} "
            f"{_serialize_score(self.score_range[1])}",
        )
        obj.add("RankingAlgorithmID", self.ranking_algorithm_id)
        if self.tokenizer_id_list:
            obj.add(
                "TokenizerIDList",
                " ".join(f"({tid} {lang})" for tid, lang in self.tokenizer_id_list),
            )
        obj.add("SampleDatabaseResults", self.sample_database_results)
        obj.add("StopWordList", " ".join(self.stop_word_list))
        obj.add("TurnOffStopWords", "T" if self.turn_off_stop_words else "F")
        obj.add("DefaultMetaAttributeSet", self.default_meta_attribute_set)
        if self.source_languages:
            obj.add("source-languages", " ".join(self.source_languages))
        if self.source_name:
            obj.add("source-name", self.source_name)
        obj.add("linkage", self.linkage)
        obj.add("content-summary-linkage", self.content_summary_linkage)
        if self.date_changed:
            obj.add("date-changed", self.date_changed)
        if self.date_expires:
            obj.add("date-expires", self.date_expires)
        if self.abstract:
            obj.add("abstract", self.abstract)
        if self.access_constraints:
            obj.add("access-constraints", self.access_constraints)
        if self.contact:
            obj.add("contact", self.contact)
        return obj

    @classmethod
    def from_soif(cls, obj: SoifObject) -> "SMetaAttributes":
        if obj.template != "SMetaAttributes":
            raise SoifSyntaxError(f"expected @SMetaAttributes, got @{obj.template}")
        score_text = (obj.get("ScoreRange") or "0.0 1.0").split()
        if len(score_text) != 2:
            raise SoifSyntaxError(f"bad ScoreRange: {obj.get('ScoreRange')!r}")
        return cls(
            source_id=obj.get("SourceID", "") or "",
            fields_supported=_parse_supported(obj.get("FieldsSupported", "") or "", FieldRef),
            modifiers_supported=_parse_supported(
                obj.get("ModifiersSupported", "") or "", ModifierRef
            ),
            field_modifier_combinations=_parse_combinations(
                obj.get("FieldModifierCombinations", "") or ""
            ),
            query_parts_supported=obj.get("QueryPartsSupported", "RF") or "RF",
            score_range=(_parse_score(score_text[0]), _parse_score(score_text[1])),
            ranking_algorithm_id=obj.get("RankingAlgorithmID", "") or "",
            tokenizer_id_list=_parse_tokenizers(obj.get("TokenizerIDList", "") or ""),
            sample_database_results=obj.get("SampleDatabaseResults", "") or "",
            stop_word_list=tuple((obj.get("StopWordList") or "").split()),
            turn_off_stop_words=(obj.get("TurnOffStopWords", "T") or "T").upper() == "T",
            source_languages=tuple((obj.get("source-languages") or "").split()),
            source_name=obj.get("source-name", "") or "",
            linkage=obj.get("linkage", "") or "",
            content_summary_linkage=obj.get("content-summary-linkage", "") or "",
            date_changed=obj.get("date-changed", "") or "",
            date_expires=obj.get("date-expires", "") or "",
            abstract=obj.get("abstract", "") or "",
            access_constraints=obj.get("access-constraints", "") or "",
            contact=obj.get("contact", "") or "",
            default_meta_attribute_set=obj.get("DefaultMetaAttributeSet", "mbasic-1")
            or "mbasic-1",
            version=obj.get("Version", PROTOCOL_VERSION) or PROTOCOL_VERSION,
        )


def _dump_supported(entries) -> str:
    parts = []
    for ref, languages in entries:
        text = ref.serialize()
        if languages:
            text += "/" + ",".join(languages)
        parts.append(text)
    return " ".join(parts)


def _split_refs(text: str) -> list[str]:
    """Split ``[a b] {c d} e`` into bracket-balanced chunks."""
    chunks: list[str] = []
    depth = 0
    current = ""
    for ch in text:
        if ch in "[{(":
            depth += 1
        elif ch in "]})":
            depth -= 1
        if ch.isspace() and depth == 0:
            if current:
                chunks.append(current)
                current = ""
        else:
            current += ch
    if current:
        chunks.append(current)
    return chunks


def _parse_supported(text: str, ref_class):
    """Parse ``[set name]`` / ``{set name}`` refs with ``/lang,lang`` suffixes.

    The language suffix is only recognized *after* a closing bracket, so
    field names containing slashes (``date/time-last-modified``) parse
    correctly; bare (unqualified) refs never take a language list.
    """
    entries = []
    for chunk in _split_refs(text):
        closing = max(chunk.rfind("]"), chunk.rfind("}"))
        languages: tuple[str, ...] = ()
        ref_text = chunk
        if closing >= 0 and closing + 1 < len(chunk):
            suffix = chunk[closing + 1 :]
            if suffix.startswith("/"):
                languages = tuple(suffix[1:].split(","))
                ref_text = chunk[: closing + 1]
        entries.append((ref_class.parse(ref_text), languages))
    return tuple(entries)


def _parse_combinations(text: str) -> tuple[tuple[FieldRef, ModifierRef], ...]:
    combos = []
    for chunk in _split_refs(text):
        if not (chunk.startswith("(") and chunk.endswith(")")):
            raise SoifSyntaxError(f"bad field-modifier combination: {chunk!r}")
        inner = _split_refs(chunk[1:-1])
        if len(inner) != 2:
            raise SoifSyntaxError(f"bad field-modifier combination: {chunk!r}")
        combos.append((FieldRef.parse(inner[0]), ModifierRef.parse(inner[1])))
    return tuple(combos)


def _parse_tokenizers(text: str) -> tuple[tuple[str, str], ...]:
    tokenizers = []
    for chunk in _split_refs(text):
        if not (chunk.startswith("(") and chunk.endswith(")")):
            raise SoifSyntaxError(f"bad tokenizer entry: {chunk!r}")
        inner = chunk[1:-1].split()
        if len(inner) != 2:
            raise SoifSyntaxError(f"bad tokenizer entry: {chunk!r}")
        tokenizers.append((inner[0], inner[1]))
    return tuple(tokenizers)


@dataclass(frozen=True, slots=True)
class SummaryEntryLine:
    """One word's statistics inside a content-summary section.

    ``postings`` or ``document_frequency`` may be -1 when the source
    exports only one of the two statistics (the paper requires "at
    least one").
    """

    word: str
    postings: int
    document_frequency: int

    def serialize(self) -> str:
        parts = [f'"{self.word}"']
        if self.postings >= 0:
            parts.append(str(self.postings))
        if self.document_frequency >= 0:
            parts.append(str(self.document_frequency))
        return " ".join(parts)

    @classmethod
    def parse(cls, line: str, has_postings: bool = True, has_df: bool = True) -> "SummaryEntryLine":
        line = line.strip()
        if not line.startswith('"'):
            raise SoifSyntaxError(f"summary line must start with a word: {line!r}")
        closing = line.find('"', 1)
        numbers = line[closing + 1 :].split()
        postings, df = -1, -1
        try:  # one line per summary word: the good path stays int()
            if closing < 0 or (has_postings and has_df and len(numbers) != 2):
                raise ValueError
            if has_postings and has_df:
                postings, df = int(numbers[0]), int(numbers[1])
            elif has_postings:
                postings = int(numbers[0])
            elif has_df:
                df = int(numbers[0])
        except (ValueError, IndexError):
            raise SoifSyntaxError(
                f"bad TermDocFreq line (a quoted word, then the declared "
                f"statistics as integers): {line!r}"
            ) from None
        return cls(line[1:closing], postings, df)


@dataclass(frozen=True)
class SummarySection:
    """Statistics for one (field, language) group of words."""

    field: str
    language: str
    entries: tuple[SummaryEntryLine, ...]


@dataclass(frozen=True)
class SContentSummary:
    """A source content summary (§4.3.2, Example 11).

    Header flags describe how the word list was produced:
    ``stemming`` — are the listed words stemmed; ``stop_words`` — does
    the list include stop words; ``case_sensitive``; ``fields`` — are
    words qualified by the field they occurred in.  The paper's
    recommendation (unstemmed, with stop words, case sensitive, with
    fields) is what our sources export by default.
    """

    num_docs: int
    sections: tuple[SummarySection, ...] = ()
    stemming: bool = False
    stop_words: bool = False
    case_sensitive: bool = False
    fields: bool = True
    has_postings: bool = True
    has_document_frequencies: bool = True
    version: str = PROTOCOL_VERSION

    def _word_index(
        self,
    ) -> tuple[
        dict[str, list[SummaryEntryLine]],
        dict[tuple[str, str], list[SummaryEntryLine]],
    ]:
        """Lazily built ``word → entries`` / ``(word, field) → entries``.

        Source selection (GlOSS, CORI) probes ``document_frequency``
        for every source per query term; scanning every section per
        probe made selection quadratic in summary size.  The index preserves section traversal order, is built on
        first use, and is invalidated whenever ``sections`` is swapped
        out (the summary is otherwise immutable).
        """
        cache = self.__dict__.get("_word_index_cache")
        if cache is not None and cache[0] is self.sections:
            return cache[1], cache[2]
        by_word: dict[str, list[SummaryEntryLine]] = {}
        by_word_field: dict[tuple[str, str], list[SummaryEntryLine]] = {}
        for section in self.sections:
            for entry in section.entries:
                key = entry.word if self.case_sensitive else entry.word.lower()
                by_word.setdefault(key, []).append(entry)
                by_word_field.setdefault((key, section.field), []).append(entry)
        object.__setattr__(
            self, "_word_index_cache", (self.sections, by_word, by_word_field)
        )
        return by_word, by_word_field

    def lookup(self, word: str, field: str | None = None) -> list[SummaryEntryLine]:
        """All entries for ``word``, optionally restricted to a field."""
        if not self.case_sensitive:
            word = word.lower()
        by_word, by_word_field = self._word_index()
        if field is None:
            return list(by_word.get(word, ()))
        return list(by_word_field.get((word, field), ()))

    def word_statistics(self) -> dict[str, tuple[int, int]]:
        """``word key → (total postings, total df)`` across all sections.

        The key is the entry word, lowercased unless the summary is
        case sensitive (the same keying :meth:`lookup` uses); negative
        statistics (absent per the "at least one of" rule) clamp to 0.
        Built once on first access and memoized, so the per-query probe
        of :meth:`document_frequency` is a single dict get instead of a
        list walk per call.  Like the word
        index, the memo is invalidated whenever ``sections`` is swapped
        out (the summary is otherwise immutable) — callers that replace
        ``sections`` via ``object.__setattr__`` get fresh statistics on
        the next probe.
        """
        cached = self.__dict__.get("_word_stats_cache")
        if cached is not None and cached[0] is self.sections:
            return cached[1]
        by_word, _ = self._word_index()
        stats = {
            word: (
                sum(max(entry.postings, 0) for entry in entries),
                sum(max(entry.document_frequency, 0) for entry in entries),
            )
            for word, entries in by_word.items()
        }
        object.__setattr__(self, "_word_stats_cache", (self.sections, stats))
        return stats

    def document_frequency(self, word: str, field: str | None = None) -> int:
        """Total df of ``word`` across sections (0 if absent)."""
        if field is None:
            if not self.case_sensitive:
                word = word.lower()
            stats = self.word_statistics().get(word)
            return stats[1] if stats is not None else 0
        return sum(
            max(entry.document_frequency, 0) for entry in self.lookup(word, field)
        )

    def total_word_mass(self) -> int:
        """Total postings across every section (CORI's ``cw`` input).

        Cached alongside the word index so repeated selection rounds do
        not re-sum the whole summary.
        """
        cached = self.__dict__.get("_word_mass_cache")
        if cached is not None and cached[0] is self.sections:
            return cached[1]
        mass = sum(
            max(entry.postings, 0)
            for section in self.sections
            for entry in section.entries
        )
        object.__setattr__(self, "_word_mass_cache", (self.sections, mass))
        return mass

    def to_soif(self) -> SoifObject:
        obj = SoifObject("SContentSummary")
        obj.add("Version", self.version)
        obj.add("Stemming", "T" if self.stemming else "F")
        obj.add("StopWords", "T" if self.stop_words else "F")
        obj.add("CaseSensitive", "T" if self.case_sensitive else "F")
        obj.add("Fields", "T" if self.fields else "F")
        statistics = []
        if self.has_postings:
            statistics.append("postings")
        if self.has_document_frequencies:
            statistics.append("df")
        obj.add("StatisticsIncluded", " ".join(statistics))
        obj.add("NumDocs", str(self.num_docs))
        for section in self.sections:
            if self.fields:
                obj.add("Field", section.field)
            obj.add("Language", section.language)
            obj.add(
                "TermDocFreq",
                "\n".join(entry.serialize() for entry in section.entries),
            )
        return obj

    @classmethod
    def from_soif(cls, obj: SoifObject) -> "SContentSummary":
        if obj.template != "SContentSummary":
            raise SoifSyntaxError(f"expected @SContentSummary, got @{obj.template}")
        has_fields = (obj.get("Fields", "T") or "T").upper() == "T"
        statistics_text = obj.get("StatisticsIncluded")
        if statistics_text is None:
            statistics_text = "postings df"  # legacy blobs: assume both
        statistics = statistics_text.split()
        has_postings = "postings" in statistics
        has_df = "df" in statistics
        if not (has_postings or has_df):
            raise SoifSyntaxError("summary must include postings or df statistics")
        sections: list[SummarySection] = []
        current_field = "any"
        current_language = "en"
        for name, value in obj.pairs():
            lowered = name.lower()
            if lowered == "field":
                current_field = value.strip()
            elif lowered == "language":
                current_language = value.strip()
            elif lowered == "termdocfreq":
                entries = tuple(
                    SummaryEntryLine.parse(line, has_postings, has_df)
                    for line in value.splitlines()
                    if line.strip()
                )
                sections.append(
                    SummarySection(current_field, current_language, entries)
                )
        return cls(
            num_docs=_number(int, "NumDocs", obj.get("NumDocs"), 0),
            sections=tuple(sections),
            stemming=(obj.get("Stemming", "F") or "F").upper() == "T",
            stop_words=(obj.get("StopWords", "F") or "F").upper() == "T",
            case_sensitive=(obj.get("CaseSensitive", "F") or "F").upper() == "T",
            fields=has_fields,
            has_postings=has_postings,
            has_document_frequencies=has_df,
            version=obj.get("Version", PROTOCOL_VERSION) or PROTOCOL_VERSION,
        )


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


@dataclass(frozen=True)
class SResource:
    """A resource's contact information (§4.3.3, Example 12).

    ``source_list`` maps source ids to the URLs of their
    metadata-attribute objects.
    """

    source_list: tuple[tuple[str, str], ...]
    version: str = PROTOCOL_VERSION

    def source_ids(self) -> list[str]:
        return [source_id for source_id, _ in self.source_list]

    def metadata_url(self, source_id: str) -> str:
        for candidate, url in self.source_list:
            if candidate == source_id:
                return url
        raise KeyError(source_id)

    def to_soif(self) -> SoifObject:
        obj = SoifObject("SResource")
        obj.add("Version", self.version)
        obj.add(
            "SourceList",
            "\n".join(f"{source_id} {url}" for source_id, url in self.source_list),
        )
        return obj

    @classmethod
    def from_soif(cls, obj: SoifObject) -> "SResource":
        if obj.template != "SResource":
            raise SoifSyntaxError(f"expected @SResource, got @{obj.template}")
        pairs = []
        for line in (obj.get("SourceList", "") or "").splitlines():
            line = line.strip()
            if not line:
                continue
            parts = line.split()
            if len(parts) != 2:
                raise SoifSyntaxError(f"bad SourceList line: {line!r}")
            pairs.append((parts[0], parts[1]))
        return cls(
            source_list=tuple(pairs),
            version=obj.get("Version", PROTOCOL_VERSION) or PROTOCOL_VERSION,
        )
