"""The vendor catalog: seven heterogeneous simulated search engines.

These stand in for the companies the paper federates (Fulcrum,
Infoseek, PLS, Verity, WAIS, Glimpse, Excite...).  Each vendor differs
along every axis §3 identifies:

* **ranking algorithm** (secret formulas, incomparable score ranges),
* **tokenizer** (is "Z39.50" one token or two?),
* **stop-word policy** (can it be turned off?),
* **stemming at index time** vs. query time,
* **query-part support** (Boolean-only Glimpse),
* **capability subsets** (missing fields, missing modifiers),
* **native query syntax** (for Free-form-text).

``build_vendor_source`` assembles a :class:`StartsSource` from a
profile; experiments instantiate several vendors over different
collections to recreate the heterogeneous federation.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.engine import fields as F
from repro.engine.documents import Document
from repro.engine.ranking import (
    Bm25,
    CosineTfIdf,
    InqueryScorer,
    PivotedCosine,
    RankingAlgorithm,
    ScaledCosine,
)
from repro.engine.search import SearchEngine
from repro.source.capabilities import SourceCapabilities
from repro.source.source import StartsSource
from repro.starts.attributes import BASIC1
from repro.text.analysis import Analyzer
from repro.text.stopwords import ENGLISH_STOP_WORDS, SPANISH_STOP_WORDS, StopWordList
from repro.text.tokenize import SimpleTokenizer, UnicodeTokenizer, WhitespaceTokenizer
from repro.vendors.native import (
    InfixSyntax,
    NativeSyntax,
    PlusMinusSyntax,
    SemicolonSyntax,
)

__all__ = ["VendorProfile", "VENDORS", "build_vendor_source", "vendor_names"]


@dataclass(frozen=True)
class VendorProfile:
    """Everything needed to instantiate one vendor's engine."""

    name: str
    description: str
    ranking_factory: object  # () -> RankingAlgorithm | None
    analyzer_factory: object  # () -> Analyzer
    capabilities_factory: object  # () -> SourceCapabilities
    native_syntax: NativeSyntax | None = None

    def build_engine(self) -> SearchEngine:
        ranking: RankingAlgorithm | None = self.ranking_factory()
        return SearchEngine(analyzer=self.analyzer_factory(), ranking=ranking)


def _full_fields() -> dict[str, tuple[str, ...]]:
    return {name: () for name in BASIC1.fields}


def _full_modifiers() -> dict[str, tuple[str, ...]]:
    return {name: () for name in BASIC1.modifiers}


def _acme_capabilities() -> SourceCapabilities:
    fields = _full_fields()
    fields[F.ABSTRACT] = ()
    return SourceCapabilities(
        fields=fields,
        modifiers=_full_modifiers(),
        query_parts="RF",
        supports_prox=True,
        turn_off_stop_words=True,
        supports_free_form=True,
    )


def _okapi_capabilities() -> SourceCapabilities:
    caps = SourceCapabilities(
        fields=_full_fields(),
        modifiers=_full_modifiers(),
        query_parts="RF",
        supports_prox=True,
        turn_off_stop_words=True,
        supports_free_form=True,
    )
    return caps.without_modifiers("thesaurus", "left-truncation")


def _infernet_capabilities() -> SourceCapabilities:
    caps = SourceCapabilities(
        fields=_full_fields(),
        modifiers=_full_modifiers(),
        query_parts="RF",
        supports_prox=True,
        turn_off_stop_words=False,
    )
    return caps.without_modifiers("case-sensitive")


def _zeus_capabilities() -> SourceCapabilities:
    caps = SourceCapabilities(
        fields=_full_fields(),
        modifiers=_full_modifiers(),
        query_parts="RF",
        supports_prox=False,  # the vendor who found prox too complex
        turn_off_stop_words=False,
        result_cap=50,
    )
    return caps.without_modifiers("right-truncation", "left-truncation").without_fields(
        "author"
    )


def _grep_capabilities() -> SourceCapabilities:
    # Glimpse-like: filter expressions only (§3.1: "Glimpse only
    # supports filter expressions").
    caps = SourceCapabilities(
        fields=_full_fields(),
        modifiers=_full_modifiers(),
        query_parts="F",
        supports_prox=True,
        turn_off_stop_words=True,
        supports_free_form=True,
    )
    return caps.without_modifiers("thesaurus", "phonetic")


def _mundo_capabilities() -> SourceCapabilities:
    return SourceCapabilities(
        fields=_full_fields(),
        modifiers=_full_modifiers(),
        query_parts="RF",
        supports_prox=True,
        turn_off_stop_words=True,
    )


def _english_stop_lists() -> dict[str, StopWordList]:
    return {"en": ENGLISH_STOP_WORDS}


def _bilingual_stop_lists() -> dict[str, StopWordList]:
    return {"en": ENGLISH_STOP_WORDS, "es": SPANISH_STOP_WORDS}


VENDORS: dict[str, VendorProfile] = {
    "AcmeSearch": VendorProfile(
        name="AcmeSearch",
        description="Verity-like: cosine tf·idf, punctuation-splitting "
        "tokenizer, full Basic-1, infix native syntax",
        ranking_factory=CosineTfIdf,
        analyzer_factory=lambda: Analyzer(
            tokenizer=SimpleTokenizer(),
            stop_words=_english_stop_lists(),
            index_stop_words=True,
        ),
        capabilities_factory=_acme_capabilities,
        native_syntax=InfixSyntax(),
    ),
    "OkapiWorks": VendorProfile(
        name="OkapiWorks",
        description="Infoseek-like: BM25 with unbounded scores, "
        "whitespace tokenizer, +/- native syntax",
        ranking_factory=Bm25,
        analyzer_factory=lambda: Analyzer(
            tokenizer=WhitespaceTokenizer(),
            stop_words=_english_stop_lists(),
            index_stop_words=True,
        ),
        capabilities_factory=_okapi_capabilities,
        native_syntax=PlusMinusSyntax(),
    ),
    "InferNet": VendorProfile(
        name="InferNet",
        description="PLS/INQUERY-like: belief scoring, stems at index "
        "time, stop words cannot be disabled",
        ranking_factory=InqueryScorer,
        analyzer_factory=lambda: Analyzer(
            tokenizer=UnicodeTokenizer(),
            stop_words=_english_stop_lists(),
            stem=True,
            can_disable_stop_words=False,
        ),
        capabilities_factory=_infernet_capabilities,
        native_syntax=None,
    ),
    "ZeusFind": VendorProfile(
        name="ZeusFind",
        description="Excite-like: top document always scores 1000, no "
        "prox, capped result lists, no author field",
        ranking_factory=ScaledCosine,
        analyzer_factory=lambda: Analyzer(
            tokenizer=SimpleTokenizer(),
            stop_words=_english_stop_lists(),
            can_disable_stop_words=False,
        ),
        capabilities_factory=_zeus_capabilities,
        native_syntax=None,
    ),
    "GrepMaster": VendorProfile(
        name="GrepMaster",
        description="Glimpse-like: Boolean-only, no ranking expressions, "
        "semicolon/comma native syntax",
        ranking_factory=lambda: None,
        analyzer_factory=lambda: Analyzer(
            tokenizer=WhitespaceTokenizer(),
            stop_words=_english_stop_lists(),
            index_stop_words=True,
        ),
        capabilities_factory=_grep_capabilities,
        native_syntax=SemicolonSyntax(),
    ),
    "SaltonSoft": VendorProfile(
        name="SaltonSoft",
        description="SMART-lineage: pivoted length normalization, "
        "unbounded scores, full Basic-1, infix native syntax",
        ranking_factory=PivotedCosine,
        analyzer_factory=lambda: Analyzer(
            tokenizer=UnicodeTokenizer(),
            stop_words=_english_stop_lists(),
            index_stop_words=True,
        ),
        capabilities_factory=_acme_capabilities,
        native_syntax=InfixSyntax(),
    ),
    "MundoDocs": VendorProfile(
        name="MundoDocs",
        description="Bilingual (en/es): Unicode tokenizer, per-language "
        "stemming and stop lists",
        ranking_factory=InqueryScorer,
        analyzer_factory=lambda: Analyzer(
            tokenizer=UnicodeTokenizer(),
            stop_words=_bilingual_stop_lists(),
            index_stop_words=True,
        ),
        capabilities_factory=_mundo_capabilities,
        native_syntax=None,
    ),
}


def vendor_names() -> list[str]:
    return sorted(VENDORS)


def build_vendor_source(
    vendor: str,
    source_id: str,
    documents: list[Document],
    base_url: str | None = None,
    **source_kwargs,
) -> StartsSource:
    """Instantiate a vendor's engine as a STARTS source.

    Raises:
        KeyError: for an unknown vendor name.
    """
    profile = VENDORS[vendor]
    return StartsSource(
        source_id,
        documents=documents,
        engine=profile.build_engine(),
        capabilities=profile.capabilities_factory(),
        base_url=base_url,
        source_name=f"{profile.name} {source_id}",
        native_syntax=profile.native_syntax,
        **source_kwargs,
    )
