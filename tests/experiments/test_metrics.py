"""Evaluation metrics: exact values on hand-checkable cases."""

from hypothesis import given, strategies as st

from repro.experiments.metrics import (
    mean,
    precision_at_k,
    rank_recall_at_k,
    recall_at_k,
    spearman_overlap,
)


class TestMean:
    def test_empty(self):
        assert mean([]) == 0.0

    def test_values(self):
        assert mean([1.0, 2.0, 3.0]) == 2.0

    def test_generator_input(self):
        assert mean(x / 2 for x in [1, 3]) == 1.0


class TestPrecision:
    def test_perfect(self):
        assert precision_at_k(["a", "b"], {"a", "b"}, 2) == 1.0

    def test_half(self):
        assert precision_at_k(["a", "x"], {"a"}, 2) == 0.5

    def test_short_rank_uses_actual_length(self):
        assert precision_at_k(["a"], {"a"}, 10) == 1.0

    def test_empty_rank(self):
        assert precision_at_k([], {"a"}, 10) == 0.0

    def test_only_top_k_counted(self):
        assert precision_at_k(["x", "y", "a"], {"a"}, 2) == 0.0


class TestRecall:
    def test_full(self):
        assert recall_at_k(["a", "b", "c"], {"a", "b"}, 3) == 1.0

    def test_partial(self):
        assert recall_at_k(["a", "x"], {"a", "b"}, 2) == 0.5

    def test_no_relevant(self):
        assert recall_at_k(["a"], set(), 1) == 0.0


class TestRankRecall:
    def test_best_source_first(self):
        counts = {"A": 8, "B": 2}
        assert rank_recall_at_k(["A", "B"], counts, 1) == 0.8
        assert rank_recall_at_k(["B", "A"], counts, 1) == 0.2
        assert rank_recall_at_k(["A", "B"], counts, 2) == 1.0

    def test_unknown_sources_contribute_nothing(self):
        assert rank_recall_at_k(["Z"], {"A": 5}, 1) == 0.0

    def test_zero_total(self):
        assert rank_recall_at_k(["A"], {"A": 0}, 1) == 0.0


class TestSpearman:
    def test_identical_order(self):
        assert spearman_overlap(["a", "b", "c"], ["a", "b", "c"]) == 1.0

    def test_reversed_order(self):
        assert spearman_overlap(["a", "b", "c"], ["c", "b", "a"]) == -1.0

    def test_partial_overlap_only(self):
        # Shared items a, b keep their relative order.
        assert spearman_overlap(["a", "x", "b"], ["a", "y", "b"]) == 1.0

    def test_fewer_than_two_shared(self):
        assert spearman_overlap(["a"], ["a"]) == 0.0
        assert spearman_overlap(["a", "b"], ["c", "d"]) == 0.0

    @given(st.permutations(["a", "b", "c", "d", "e"]))
    def test_bounds(self, candidate):
        rho = spearman_overlap(["a", "b", "c", "d", "e"], list(candidate))
        assert -1.0 <= rho <= 1.0

    @given(st.permutations(["a", "b", "c", "d"]))
    def test_symmetry_of_perfect_agreement(self, order):
        order = list(order)
        assert spearman_overlap(order, order) == 1.0
