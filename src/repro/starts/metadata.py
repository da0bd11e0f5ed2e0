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

import re
from collections.abc import Iterable
from dataclasses import dataclass
from functools import lru_cache
from typing import NamedTuple

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
        # Each attribute's first value, by its lower-cased name.
        values: dict[str, str] = {}
        for name, value in obj:
            values.setdefault(name.lower(), value)
        get = values.get
        score_text = (get("scorerange") or "0.0 1.0").split()
        if len(score_text) != 2:
            raise SoifSyntaxError(f"bad ScoreRange: {get('scorerange')!r}")
        return cls(
            source_id=get("sourceid") or "",
            fields_supported=_parse_supported(get("fieldssupported") or "", FieldRef),
            modifiers_supported=_parse_supported(
                get("modifierssupported") or "", ModifierRef
            ),
            field_modifier_combinations=_parse_combinations(
                get("fieldmodifiercombinations") or ""
            ),
            query_parts_supported=get("querypartssupported") or "RF",
            score_range=(_parse_score(score_text[0]), _parse_score(score_text[1])),
            ranking_algorithm_id=get("rankingalgorithmid") or "",
            tokenizer_id_list=_parse_tokenizers(get("tokenizeridlist") or ""),
            sample_database_results=get("sampledatabaseresults") or "",
            stop_word_list=tuple((get("stopwordlist") or "").split()),
            turn_off_stop_words=(get("turnoffstopwords") or "T").upper() == "T",
            source_languages=tuple((get("source-languages") or "").split()),
            source_name=get("source-name") or "",
            linkage=get("linkage") or "",
            content_summary_linkage=get("content-summary-linkage") or "",
            date_changed=get("date-changed") or "",
            date_expires=get("date-expires") or "",
            abstract=get("abstract") or "",
            access_constraints=get("access-constraints") or "",
            contact=get("contact") or "",
            default_meta_attribute_set=get("defaultmetaattributeset") or "mbasic-1",
            version=get("version") or PROTOCOL_VERSION,
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


# The capability parsers are pure functions of their text, returning
# tuples of frozen refs: sources running one vendor's software export the
# same lists, so each distinct text is parsed once per process.


@lru_cache(maxsize=256)
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


@lru_cache(maxsize=256)
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


@lru_cache(maxsize=256)
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


class SummaryEntryLine(NamedTuple):
    """One word's statistics inside a content-summary section.

    ``postings`` or ``document_frequency`` is -1 when the source
    exports only one of the two statistics (the paper requires "at
    least one").  A plain row, ``(word, postings, document_frequency)``:
    what the summary writer takes and the reader builds per word.
    """

    word: str
    postings: int
    document_frequency: int


#: One ``TermDocFreq`` line, fully matched, surrounding whitespace
#: included: the quoted word runs to the line's *last* quote (a count
#: holds none), then each declared statistic as ASCII decimal digits —
#: with one declared, whatever follows its count is ignored.  Keyed by
#: whether both statistics are declared.
_TERM_DOC_FREQ_LINE = {
    True: re.compile(r'\s*"(.*)"\s*([0-9]+)\s+([0-9]+)\s*'),
    False: re.compile(r'\s*"(.*)"\s*([0-9]+)(?:\s[^"]*)?'),
}


def _section_entries(
    text: str, has_postings: bool, has_df: bool
) -> tuple[SummaryEntryLine, ...]:
    """The entries of one ``TermDocFreq`` value; blank lines are skipped."""
    match = _TERM_DOC_FREQ_LINE[has_postings and has_df].fullmatch
    rows = []
    for line in text.splitlines():
        found = match(line)
        if found is not None:
            rows.append(found.groups())
        elif line and not line.isspace():
            raise SoifSyntaxError(
                f"bad TermDocFreq line (a quoted word, then the declared "
                f"statistics as ASCII decimal digits): {line!r}"
            )
    if has_postings and has_df:
        return tuple([SummaryEntryLine(w, int(p), int(df)) for w, p, df in rows])
    if has_postings:
        return tuple([SummaryEntryLine(w, int(p), -1) for w, p in rows])
    return tuple([SummaryEntryLine(w, -1, int(df)) for w, df in rows])


def write_content_summary(
    header: "SContentSummary",
    sections: Iterable[tuple[str, str, Iterable[tuple[str, int, int]]]],
) -> SoifObject:
    """The one @SContentSummary writer (Example 11).

    ``header`` gives the flags, ``NumDocs`` and ``Version`` (its own
    sections are not read); each ``(field, language, rows)`` of
    ``sections`` becomes a ``Field`` (when the header declares fields),
    ``Language`` and ``TermDocFreq`` attribute.  A row is ``(word,
    postings, df)``, as a :class:`SummaryEntryLine` is; only the
    statistics the header declares are written.
    """
    obj = SoifObject("SContentSummary")
    obj.add("Version", header.version)
    obj.add("Stemming", "T" if header.stemming else "F")
    obj.add("StopWords", "T" if header.stop_words else "F")
    obj.add("CaseSensitive", "T" if header.case_sensitive else "F")
    obj.add("Fields", "T" if header.fields else "F")
    postings, df = header.has_postings, header.has_document_frequencies
    statistics = []
    if postings:
        statistics.append("postings")
    if df:
        statistics.append("df")
    obj.add("StatisticsIncluded", " ".join(statistics))
    obj.add("NumDocs", str(header.num_docs))
    for field_name, language, rows in sections:
        if header.fields:
            obj.add("Field", field_name)
        obj.add("Language", language)
        if postings and df:
            lines = [f'"{word}" {p} {d}' for word, p, d in rows]
        elif postings:
            lines = [f'"{word}" {p}' for word, p, _ in rows]
        else:
            lines = [f'"{word}" {d}' for word, _, d in rows]
        obj.add("TermDocFreq", "\n".join(lines))
    return obj


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

    def _tallied(self) -> tuple[dict[str, tuple[int, int]], int]:
        """:meth:`word_statistics` and :meth:`total_word_mass` in one
        walk over the entries, memoized and invalidated whenever
        ``sections`` is swapped out (the summary is otherwise immutable)."""
        cached = self.__dict__.get("_tally_cache")
        if cached is not None and cached[0] is self.sections:
            return cached[1], cached[2]
        statistics: dict[str, tuple[int, int]] = {}
        mass = 0
        for section in self.sections:
            for word, postings, df in section.entries:
                postings = postings if postings > 0 else 0
                df = df if df > 0 else 0
                key = word if self.case_sensitive else word.lower()
                total = statistics.get(key)
                statistics[key] = (
                    (postings, df) if total is None else (total[0] + postings, total[1] + df)
                )
                mass += postings
        object.__setattr__(self, "_tally_cache", (self.sections, statistics, mass))
        return statistics, mass

    def word_statistics(self) -> dict[str, tuple[int, int]]:
        """``word key → (total postings, total df)`` across all sections.

        The key is the entry word, lowercased unless the summary is
        case sensitive (the keying :meth:`document_frequency` uses); negative
        statistics (absent per the "at least one of" rule) clamp to 0.
        Memoized, so the per-query probe of :meth:`document_frequency`
        is a single dict get; a decoded summary has it from the decode.
        """
        return self._tallied()[0]

    def document_frequency(self, word: str) -> int:
        """Total df of ``word`` across sections (0 if absent)."""
        if not self.case_sensitive:
            word = word.lower()
        stats = self.word_statistics().get(word)
        return stats[1] if stats is not None else 0

    def total_word_mass(self) -> int:
        """Total postings across every section (CORI's ``cw`` input),
        memoized with :meth:`word_statistics`."""
        return self._tallied()[1]

    def to_soif(self) -> SoifObject:
        return write_content_summary(
            self, ((s.field, s.language, s.entries) for s in self.sections)
        )

    @classmethod
    def from_soif(cls, obj: SoifObject) -> "SContentSummary":
        """Decode, with :meth:`word_statistics` and
        :meth:`total_word_mass` tallied in the same decode.  A count is
        ASCII decimal digits; anything else raises
        :class:`SoifSyntaxError` naming ``TermDocFreq`` or ``NumDocs``."""
        if obj.template != "SContentSummary":
            raise SoifSyntaxError(f"expected @SContentSummary, got @{obj.template}")
        # Each attribute's first value by its lower-cased name, and every
        # TermDocFreq value under the Field and Language before it.
        header: dict[str, str] = {}
        texts = []
        current_field = "any"
        current_language = "en"
        for name, value in obj:
            lowered = name.lower()
            if lowered == "termdocfreq":
                texts.append((current_field, current_language, value))
            elif lowered == "field":
                current_field = value.strip()
            elif lowered == "language":
                current_language = value.strip()
            header.setdefault(lowered, value)
        statistics_text = header.get("statisticsincluded")
        if statistics_text is None:
            statistics_text = "postings df"  # legacy blobs: assume both
        statistics = statistics_text.split()
        has_postings = "postings" in statistics
        has_df = "df" in statistics
        if not (has_postings or has_df):
            raise SoifSyntaxError("summary must include postings or df statistics")
        num_docs = (header.get("numdocs") or "0").strip()
        if not (num_docs.isdigit() and num_docs.isascii()):
            raise SoifSyntaxError(
                f"bad NumDocs value {header['numdocs']!r} (ASCII decimal digits)"
            )
        sections = tuple(
            SummarySection(field_name, language, _section_entries(text, has_postings, has_df))
            for field_name, language, text in texts
        )
        summary = cls(
            num_docs=int(num_docs),
            sections=sections,
            stemming=(header.get("stemming") or "F").upper() == "T",
            stop_words=(header.get("stopwords") or "F").upper() == "T",
            case_sensitive=(header.get("casesensitive") or "F").upper() == "T",
            fields=(header.get("fields") or "T").upper() == "T",
            has_postings=has_postings,
            has_document_frequencies=has_df,
            version=header.get("version") or PROTOCOL_VERSION,
        )
        summary._tallied()
        return summary


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
