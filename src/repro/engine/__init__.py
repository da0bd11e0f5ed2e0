"""Full-text search-engine substrate.

STARTS federates *search engines*; the paper could rely on commercial
ones (Fulcrum, Infoseek, PLS, Verity, WAIS, Glimpse).  This package is
the from-scratch replacement: a fielded document model, a positional
inverted index, a Boolean evaluator covering the Basic-1 operator set
(``and``, ``or``, ``and-not``, ``prox``), and a family of pluggable
ranking algorithms so that different simulated vendors genuinely rank
differently — the heterogeneity that motivates the protocol.
"""

from repro.engine.documents import Document, DocumentStore
from repro.engine.fields import (
    ANY,
    AUTHOR,
    BODY_OF_TEXT,
    CROSS_REFERENCE_LINKAGE,
    DATE_LAST_MODIFIED,
    DOCUMENT_TEXT,
    FREE_FORM_TEXT,
    LANGUAGES,
    LINKAGE,
    LINKAGE_TYPE,
    TITLE,
    TEXT_FIELDS,
)
from repro.engine.evaluation import (
    EVALUATION_MODES,
    PRUNED,
    TERM_AT_A_TIME,
    QueryTermContext,
    hit_order_key,
)
from repro.engine.index import InvertedIndex
from repro.engine.pruning import PrunedContext, supports_pruning
from repro.engine.query import (
    EngineQuery,
    TermQuery,
    BooleanQuery,
    ProxQuery,
    ListQuery,
)
from repro.engine.ranking import (
    RankingAlgorithm,
    CosineTfIdf,
    Bm25,
    InqueryScorer,
    PivotedCosine,
    ScaledCosine,
    RANKING_ALGORITHMS,
)
from repro.engine.search import EngineHit, SearchEngine, TermHitStats
from repro.engine.snippets import Snippet, make_snippet

__all__ = [
    "Document",
    "DocumentStore",
    "ANY",
    "AUTHOR",
    "BODY_OF_TEXT",
    "CROSS_REFERENCE_LINKAGE",
    "DATE_LAST_MODIFIED",
    "DOCUMENT_TEXT",
    "FREE_FORM_TEXT",
    "LANGUAGES",
    "LINKAGE",
    "LINKAGE_TYPE",
    "TITLE",
    "TEXT_FIELDS",
    "EVALUATION_MODES",
    "PRUNED",
    "TERM_AT_A_TIME",
    "QueryTermContext",
    "hit_order_key",
    "PrunedContext",
    "supports_pruning",
    "InvertedIndex",
    "EngineQuery",
    "TermQuery",
    "BooleanQuery",
    "ProxQuery",
    "ListQuery",
    "RankingAlgorithm",
    "CosineTfIdf",
    "Bm25",
    "InqueryScorer",
    "PivotedCosine",
    "ScaledCosine",
    "RANKING_ALGORITHMS",
    "EngineHit",
    "SearchEngine",
    "TermHitStats",
    "Snippet",
    "make_snippet",
]
