"""The metasearcher: discovery, selection, translation, merging, facade.

The query round itself — executors, per-source policies, outcomes —
lives in :mod:`repro.federation`; the most commonly used names are
re-exported here for convenience.
"""

from repro.federation import (
    AsyncExecutor,
    OutcomeStatus,
    QueryPolicy,
    SerialExecutor,
    SourceOutcome,
)
from repro.metasearch.client import Metasearcher, MetasearchResult, StreamEmission
from repro.metasearch.discovery import DiscoveryService, KnownSource
from repro.metasearch.merging import (
    MERGE_STRATEGIES,
    CalibratedMerge,
    CoriMerge,
    MergeContext,
    MergedDocument,
    MergeStrategy,
    NormalizedScoreMerge,
    RawScoreMerge,
    RoundRobinMerge,
    StreamingMerge,
    TermFrequencyMerge,
    TfIdfRecomputeMerge,
)
from repro.metasearch.selection import (
    SELECTOR_REGISTRY,
    BGloss,
    BySize,
    Cori,
    CostAware,
    RandomSelector,
    SelectAll,
    SourceSelector,
    VGlossMax,
    VGlossSum,
    order_key,
)
from repro.metasearch.summary_index import SummaryIndex, TermColumns
from repro.metasearch.rewriting import PredicateRewriter, RewriteReport
from repro.metasearch.translation import (
    ClientTranslator,
    TranslationReport,
    capabilities_from_metadata,
)

__all__ = [
    "AsyncExecutor",
    "OutcomeStatus",
    "QueryPolicy",
    "SerialExecutor",
    "SourceOutcome",
    "Metasearcher",
    "MetasearchResult",
    "StreamEmission",
    "DiscoveryService",
    "KnownSource",
    "MERGE_STRATEGIES",
    "CalibratedMerge",
    "CoriMerge",
    "MergeContext",
    "MergedDocument",
    "MergeStrategy",
    "NormalizedScoreMerge",
    "RawScoreMerge",
    "RoundRobinMerge",
    "StreamingMerge",
    "TermFrequencyMerge",
    "TfIdfRecomputeMerge",
    "SELECTOR_REGISTRY",
    "BGloss",
    "BySize",
    "Cori",
    "CostAware",
    "RandomSelector",
    "SelectAll",
    "SourceSelector",
    "order_key",
    "SummaryIndex",
    "TermColumns",
    "VGlossMax",
    "VGlossSum",
    "PredicateRewriter",
    "RewriteReport",
    "ClientTranslator",
    "TranslationReport",
    "capabilities_from_metadata",
]
