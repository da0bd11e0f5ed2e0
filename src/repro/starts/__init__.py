"""The STARTS protocol: queries, results, metadata, SOIF encoding.

This package is the paper's primary contribution, implemented in full:

* the query language — l-strings (:mod:`~repro.starts.lstring`),
  Basic-1 attributes (:mod:`~repro.starts.attributes`), the expression
  AST (:mod:`~repro.starts.ast`) and its parser
  (:mod:`~repro.starts.parser`);
* complete queries with answer specifications
  (:mod:`~repro.starts.query`);
* query results with actual-query reporting and rank-merging statistics
  (:mod:`~repro.starts.results`);
* source metadata — MBasic-1 attributes, content summaries and resource
  definitions (:mod:`~repro.starts.metadata`);
* the SOIF wire encoding (:mod:`~repro.starts.soif`).
"""

from repro.starts.ast import SAnd, SAndNot, SList, SNode, SOr, SProx, STerm
from repro.starts.attributes import (
    BASIC1,
    COMPARISON_MODIFIERS,
    AttributeSet,
    FieldRef,
    FieldSpec,
    ModifierRef,
    ModifierSpec,
    canonical_field_name,
)
from repro.starts.errors import (
    ProtocolError,
    QuerySyntaxError,
    SoifSyntaxError,
    StartsError,
    UnknownSourceError,
)
from repro.starts.lstring import LString
from repro.starts.metadata import (
    MBASIC1_ATTRIBUTES,
    MetaAttributeSpec,
    SContentSummary,
    SMetaAttributes,
    SResource,
    SummaryEntryLine,
    SummarySection,
)
from repro.starts.parser import parse_expression
from repro.starts.query import PROTOCOL_VERSION, SortKey, SQuery
from repro.starts.results import SQRDocument, SQResults, TermStats
from repro.starts.soif import SoifObject, parse_soif, parse_soif_stream

__all__ = [
    "SNode",
    "STerm",
    "SAnd",
    "SOr",
    "SAndNot",
    "SProx",
    "SList",
    "BASIC1",
    "COMPARISON_MODIFIERS",
    "AttributeSet",
    "FieldRef",
    "FieldSpec",
    "ModifierRef",
    "ModifierSpec",
    "canonical_field_name",
    "StartsError",
    "QuerySyntaxError",
    "SoifSyntaxError",
    "ProtocolError",
    "UnknownSourceError",
    "LString",
    "MBASIC1_ATTRIBUTES",
    "MetaAttributeSpec",
    "SContentSummary",
    "SMetaAttributes",
    "SResource",
    "SummaryEntryLine",
    "SummarySection",
    "parse_expression",
    "PROTOCOL_VERSION",
    "SortKey",
    "SQuery",
    "SQRDocument",
    "SQResults",
    "TermStats",
    "SoifObject",
    "parse_soif",
    "parse_soif_stream",
]
