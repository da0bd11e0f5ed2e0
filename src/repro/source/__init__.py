"""STARTS-compliant sources: capability declaration, execution, export."""

from repro.source.capabilities import SourceCapabilities
from repro.source.execution import QueryTranslator, TranslationOutcome
from repro.source.scan import ScanEntry, ScanRequest, ScanResponse
from repro.source.sample import (
    SampleResults,
    run_sample_queries,
    sample_collection,
    sample_queries,
)
from repro.source.source import StartsSource
from repro.source.summaries import build_content_summary

__all__ = [
    "SourceCapabilities",
    "QueryTranslator",
    "TranslationOutcome",
    "ScanEntry",
    "ScanRequest",
    "ScanResponse",
    "SampleResults",
    "run_sample_queries",
    "sample_collection",
    "sample_queries",
    "StartsSource",
    "build_content_summary",
]
