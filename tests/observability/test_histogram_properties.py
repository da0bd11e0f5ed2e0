"""Property-based histogram audit: buckets, edges, sums, rendering.

Requires ``hypothesis``; the whole module skips cleanly where the
package is absent so the suite stays dependency-light.
"""

import math

import pytest

hypothesis = pytest.importorskip("hypothesis")
from hypothesis import given, settings, strategies as st  # noqa: E402

from repro.observability import (  # noqa: E402
    Histogram,
    MetricsRegistry,
    render_prometheus,
)

#: Finite floats plus +inf — everything a histogram legally observes.
observable = st.one_of(
    st.floats(
        min_value=-1e12,
        max_value=1e12,
        allow_nan=False,
        allow_infinity=False,
    ),
    st.just(math.inf),
)

bounds_strategy = st.lists(
    st.floats(min_value=0.001, max_value=1e9, allow_nan=False, allow_infinity=False),
    min_size=1,
    max_size=8,
    unique=True,
).map(lambda bounds: tuple(sorted(bounds)))


class TestConservationLaws:
    @settings(max_examples=200, deadline=None)
    @given(bounds=bounds_strategy, values=st.lists(observable, max_size=50))
    def test_count_and_buckets_conserve_observations(self, bounds, values):
        histogram = Histogram(bounds)
        for value in values:
            histogram.observe(value)
        assert histogram.count == len(values)
        assert sum(histogram.bucket_counts) == len(values)

    @settings(max_examples=200, deadline=None)
    @given(
        bounds=bounds_strategy,
        values=st.lists(
            st.floats(
                min_value=-1e12,
                max_value=1e12,
                allow_nan=False,
                allow_infinity=False,
            ),
            max_size=50,
        ),
    )
    def test_sum_matches_the_observations(self, bounds, values):
        histogram = Histogram(bounds)
        for value in values:
            histogram.observe(value)
        # Sequential accumulation reorders rounding vs fsum; allow the
        # difference float addition itself can introduce.
        assert histogram.sum == pytest.approx(
            math.fsum(values), abs=1e-6, rel=1e-9
        )

    @settings(max_examples=200, deadline=None)
    @given(bounds=bounds_strategy, values=st.lists(observable, max_size=50))
    def test_each_value_lands_in_its_first_covering_bucket(self, bounds, values):
        histogram = Histogram(bounds)
        for value in values:
            histogram.observe(value)
        expected = [0] * (len(bounds) + 1)
        for value in values:
            for index, bound in enumerate(bounds):
                if value <= bound:
                    expected[index] += 1
                    break
            else:
                expected[-1] += 1
        assert list(histogram.bucket_counts) == expected


class TestEdges:
    def test_zero_lands_in_the_first_bucket(self):
        histogram = Histogram((1.0, 10.0))
        histogram.observe(0.0)
        assert histogram.bucket_counts[0] == 1

    def test_negative_values_land_in_the_first_bucket(self):
        # Prometheus buckets are cumulative from -inf: a negative
        # observation belongs to every le bucket, i.e. the first.
        histogram = Histogram((1.0, 10.0))
        histogram.observe(-5.0)
        assert histogram.bucket_counts[0] == 1
        assert histogram.sum == -5.0

    def test_exact_bound_is_inclusive(self):
        histogram = Histogram((1.0, 10.0))
        histogram.observe(1.0)
        histogram.observe(10.0)
        assert list(histogram.bucket_counts) == [1, 1, 0]

    def test_inf_lands_in_the_overflow_bucket(self):
        histogram = Histogram((1.0,))
        histogram.observe(math.inf)
        assert histogram.bucket_counts[-1] == 1
        assert histogram.sum == math.inf

    def test_nan_is_rejected(self):
        histogram = Histogram((1.0,))
        with pytest.raises(ValueError, match="NaN"):
            histogram.observe(math.nan)
        assert histogram.count == 0


class TestRenderedInvariants:
    @settings(max_examples=100, deadline=None)
    @given(values=st.lists(observable, min_size=1, max_size=30))
    def test_bucket_lines_are_monotone_and_end_at_count(self, values):
        registry = MetricsRegistry()
        histogram = registry.histogram("h_ms", buckets=(1.0, 10.0, 100.0))
        for value in values:
            histogram.observe(value)
        lines = [
            line
            for line in render_prometheus(registry).split("\n")
            if line.startswith("h_ms_bucket")
        ]
        counts = [int(line.rsplit(" ", 1)[1]) for line in lines]
        assert counts == sorted(counts)
        assert counts[-1] == len(values)
        count_line = next(
            line
            for line in render_prometheus(registry).split("\n")
            if line.startswith("h_ms_count")
        )
        assert count_line.endswith(f" {len(values)}")
