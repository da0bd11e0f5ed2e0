"""Experiment runners, and the tables of EXPERIMENTS.md built from them
(``ARTIFACTS``, :mod:`~repro.experiments.artifacts`).

One runner module per experiment family (see DESIGN.md §3):

* E1 — :mod:`~repro.experiments.selection` (source selection / GlOSS)
* E2/E6 — :mod:`~repro.experiments.merging` (rank merging / calibration)
* E3 — :mod:`~repro.experiments.translation` (query translation)
* E4 — :mod:`~repro.experiments.summaries` (summary size)
* E5 — :mod:`~repro.experiments.endtoend` (full pipeline vs. baseline)

All runners share the reproducible federation from
:mod:`~repro.experiments.federation` and the metrics from
:mod:`~repro.experiments.metrics`.
"""

from repro.experiments.artifacts import ARTIFACTS
from repro.experiments.endtoend import PipelineResult, run_end_to_end_experiment
from repro.experiments.federation import Federation, FederationSpec, build_federation
from repro.experiments.merging import (
    MergingResult,
    default_strategies,
    run_merging_experiment,
)
from repro.experiments.metrics import (
    mean,
    precision_at_k,
    rank_recall_at_k,
    recall_at_k,
    spearman_overlap,
)
from repro.experiments.selection import (
    SelectionResult,
    default_selectors,
    run_selection_experiment,
)
from repro.experiments.summaries import SummarySizeRow, run_summary_size_experiment
from repro.experiments.translation import (
    FEATURE_QUERIES,
    TranslationCell,
    least_common_denominator,
    run_translation_experiment,
)

__all__ = [
    "ARTIFACTS",
    "PipelineResult",
    "run_end_to_end_experiment",
    "Federation",
    "FederationSpec",
    "build_federation",
    "MergingResult",
    "default_strategies",
    "run_merging_experiment",
    "mean",
    "precision_at_k",
    "rank_recall_at_k",
    "recall_at_k",
    "spearman_overlap",
    "SelectionResult",
    "default_selectors",
    "run_selection_experiment",
    "SummarySizeRow",
    "run_summary_size_experiment",
    "FEATURE_QUERIES",
    "TranslationCell",
    "least_common_denominator",
    "run_translation_experiment",
]
