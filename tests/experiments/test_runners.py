"""The experiment runners themselves: determinism and basic shapes.

These run on a deliberately tiny federation so the whole file stays
fast; the full-size shape assertions live in test_artifacts.py.
"""

import pytest

from repro.experiments import (
    FEATURE_QUERIES,
    FederationSpec,
    build_federation,
    least_common_denominator,
    run_end_to_end_experiment,
    run_merging_experiment,
    run_selection_experiment,
    run_summary_size_experiment,
    run_translation_experiment,
)
from repro.metasearch.selection import VGlossMax


@pytest.fixture(scope="module")
def tiny_federation():
    return build_federation(
        FederationSpec(n_sources=4, docs_per_source=25, n_queries=8, seed=3)
    )


class TestFederationBuilder:
    def test_deterministic(self):
        spec = FederationSpec(n_sources=3, docs_per_source=10, n_queries=3, seed=5)
        a = build_federation(spec)
        b = build_federation(spec)
        assert a.source_ids() == b.source_ids()
        assert [q.terms for q in a.workload.queries] == [
            q.terms for q in b.workload.queries
        ]
        for source_id in a.source_ids():
            assert a.collections[source_id] == b.collections[source_id]

    def test_vendor_cycle_heterogeneous(self, tiny_federation):
        algorithms = {
            source.metadata().ranking_algorithm_id
            for source in tiny_federation.sources.values()
        }
        assert len(algorithms) == 4

    def test_charging_source_recorded(self, tiny_federation):
        assert tiny_federation.costs  # index 3 charges by default

    def test_boolean_only_source_option(self):
        fed = build_federation(
            FederationSpec(
                n_sources=3,
                docs_per_source=10,
                n_queries=2,
                include_boolean_only_source=True,
            )
        )
        parts = {
            source.capabilities.query_parts
            for source in fed.sources.values()
        }
        assert "F" in parts


class TestSelectionRunner:
    def test_rows_per_selector(self, tiny_federation):
        rows = run_selection_experiment(
            tiny_federation, selectors=[VGlossMax()], ks=(1, 2)
        )
        assert len(rows) == 1
        assert set(rows[0].recall_at_k) == {1, 2}

    def test_recall_monotone_in_k(self, tiny_federation):
        rows = run_selection_experiment(tiny_federation, ks=(1, 2, 3, 4))
        for row in rows:
            values = [row.recall_at_k[k] for k in (1, 2, 3, 4)]
            assert values == sorted(values)

    def test_recall_at_all_sources_is_one(self, tiny_federation):
        rows = run_selection_experiment(
            tiny_federation, selectors=[VGlossMax()], ks=(4,)
        )
        assert rows[0].recall_at_k[4] == pytest.approx(1.0)

    def test_row_rendering(self, tiny_federation):
        rows = run_selection_experiment(
            tiny_federation, selectors=[VGlossMax()], ks=(1,)
        )
        assert "vGlOSS-Max" in rows[0].row()


class TestMergingRunner:
    def test_every_default_strategy_measured(self, tiny_federation):
        rows = run_merging_experiment(tiny_federation, n_queries=4)
        assert len(rows) == 7
        for row in rows:
            assert 0.0 <= row.precision_at_10 <= 1.0
            assert -1.0 <= row.spearman_vs_reference <= 1.0

    def test_withholding_stats_changes_nothing_for_raw(self, tiny_federation):
        from repro.metasearch.merging import RawScoreMerge

        with_stats = run_merging_experiment(
            tiny_federation, strategies=[RawScoreMerge()], n_queries=4
        )
        without = run_merging_experiment(
            tiny_federation,
            strategies=[RawScoreMerge()],
            n_queries=4,
            withhold_term_stats=True,
        )
        assert with_stats[0].precision_at_10 == without[0].precision_at_10


class TestTranslationRunner:
    def test_full_matrix(self, tiny_federation):
        cells = run_translation_experiment(tiny_federation)
        assert len(cells) == len(FEATURE_QUERIES) * len(tiny_federation.sources)

    def test_lcd_subset_of_features(self, tiny_federation):
        cells = run_translation_experiment(tiny_federation)
        lcd = least_common_denominator(cells)
        assert set(lcd) <= set(FEATURE_QUERIES)


class TestSummarySizeRunner:
    def test_rows_and_ratios(self):
        rows = run_summary_size_experiment(sizes=(10, 20), truncate_to=10)
        assert [row.n_docs for row in rows] == [10, 20]
        for row in rows:
            assert row.summary_bytes < row.collection_bytes
            assert row.truncated_summary_bytes <= row.summary_bytes


class TestEndToEndRunner:
    def test_two_configurations(self, tiny_federation):
        rows = run_end_to_end_experiment(tiny_federation, n_queries=4, k_sources=2)
        names = {row.name for row in rows}
        assert any(name.startswith("starts") for name in names)
        assert any(name.startswith("baseline") for name in names)
        for row in rows:
            assert row.requests_per_query > 0
