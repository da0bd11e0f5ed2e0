"""The metrics registry: instruments, families, the disabled switch."""

import threading

import pytest

from repro.corpus import CollectionSpec, generate_collection
from repro.metasearch import Metasearcher
from repro.observability import (
    Counter,
    Gauge,
    Histogram,
    MetricsRegistry,
    get_registry,
    log_scale_buckets,
    set_registry,
)
from repro.resource import Resource
from repro.starts import SQuery, parse_expression
from repro.transport import SimulatedInternet, publish_resource
from repro.vendors import build_vendor_source


class TestLogScaleBuckets:
    def test_classic_mantissa_ladder(self):
        assert log_scale_buckets(1.0, 100.0) == (
            1.0, 2.5, 5.0, 10.0, 25.0, 50.0, 100.0,
        )

    def test_stop_is_always_included(self):
        assert log_scale_buckets(1.0, 30.0)[-1] == 30.0

    def test_rejects_bad_ranges(self):
        with pytest.raises(ValueError):
            log_scale_buckets(0.0, 10.0)
        with pytest.raises(ValueError):
            log_scale_buckets(10.0, 10.0)
        with pytest.raises(ValueError):
            log_scale_buckets(1.0, 10.0, per_decade=4)


class TestInstruments:
    def test_counter_accumulates_and_rejects_negatives(self):
        counter = Counter()
        counter.inc()
        counter.inc(2.5)
        assert counter.value == pytest.approx(3.5)
        with pytest.raises(ValueError):
            counter.inc(-1)

    def test_gauge_goes_both_ways(self):
        gauge = Gauge()
        gauge.set(10.0)
        gauge.inc(5.0)
        gauge.dec(2.0)
        assert gauge.value == pytest.approx(13.0)

    def test_counter_is_thread_safe(self):
        counter = Counter()

        def hammer() -> None:
            for _ in range(1000):
                counter.inc()

        threads = [threading.Thread(target=hammer) for _ in range(8)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        assert counter.value == 8000


class TestHistogram:
    def test_observations_land_in_the_right_buckets(self):
        histogram = Histogram(bounds=(1.0, 10.0, 100.0))
        for value in (0.5, 1.0, 5.0, 50.0, 500.0):
            histogram.observe(value)
        # bucket_counts has one extra overflow bucket.
        assert histogram.bucket_counts == [2, 1, 1, 1]
        assert histogram.count == 5
        assert histogram.sum == pytest.approx(556.5)

    def test_empty_histogram_reads_zero(self):
        histogram = Histogram()
        assert (histogram.count, histogram.sum) == (0, 0.0)
        assert not any(histogram.bucket_counts)

    def test_bounds_must_ascend(self):
        with pytest.raises(ValueError):
            Histogram(bounds=(10.0, 1.0))


class TestMetricFamilies:
    def test_labeled_children_are_distinct_and_sorted(self):
        registry = MetricsRegistry()
        family = registry.counter(
            "source_requests_total", "requests", labels=("source_id", "outcome")
        )
        family.labels(source_id="S2", outcome="ok").inc()
        family.labels(source_id="S1", outcome="ok").inc(2)
        family.labels(source_id="S1", outcome="error").inc()
        values = {key: child.value for key, child in family.children()}
        assert values == {
            ("S1", "error"): 1,
            ("S1", "ok"): 2,
            ("S2", "ok"): 1,
        }
        assert [key for key, _ in family.children()] == sorted(values)

    def test_zero_label_family_acts_as_its_own_child(self):
        registry = MetricsRegistry()
        registry.counter("walks_total", "walks").inc(3)
        ((key, child),) = registry.family("walks_total").children()
        assert key == ()
        assert child.value == 3

    def test_labeled_family_rejects_bare_use_and_wrong_labels(self):
        registry = MetricsRegistry()
        family = registry.counter("x_total", "x", labels=("a",))
        with pytest.raises(ValueError):
            family.inc()
        with pytest.raises(ValueError):
            family.labels(b="1")
        with pytest.raises(ValueError):
            family.labels(a="1", b="2")

    def test_registration_is_idempotent(self):
        registry = MetricsRegistry()
        first = registry.counter("t_total", "help", labels=("s",))
        second = registry.counter("t_total", "ignored", labels=("s",))
        assert first is second

    def test_kind_and_label_mismatches_raise(self):
        registry = MetricsRegistry()
        registry.counter("t_total", "help", labels=("s",))
        with pytest.raises(ValueError):
            registry.gauge("t_total", labels=("s",))
        with pytest.raises(ValueError):
            registry.counter("t_total", labels=("other",))

    def test_histogram_family_uses_declared_buckets(self):
        registry = MetricsRegistry()
        family = registry.histogram("h_ms", "h", buckets=(1.0, 2.0))
        family.observe(1.5)
        ((_, histogram),) = family.children()
        assert histogram.bounds == (1.0, 2.0)
        assert histogram.bucket_counts == [0, 1, 0]

    def test_families_sorted_and_reset(self):
        registry = MetricsRegistry()
        registry.counter("b_total")
        registry.gauge("a_value")
        assert [family.name for family in registry.families()] == [
            "a_value", "b_total",
        ]
        registry.reset()
        assert registry.families() == []


class TestDisabledRegistry:
    def test_disabled_registry_hands_out_noops(self):
        registry = MetricsRegistry.disabled()
        family = registry.counter("x_total", labels=("s",))
        family.labels(s="S1").inc()
        family.inc()  # even bare use is silently absorbed
        registry.gauge("g").set(5)
        registry.histogram("h").observe(1.0)
        assert registry.families() == []

    def test_process_registry_swap_and_restore(self):
        previous = get_registry()
        mine = MetricsRegistry()
        try:
            assert set_registry(mine) is mine
            assert get_registry() is mine
        finally:
            set_registry(previous)
        assert get_registry() is previous


def _federation(seed: int = 7):
    """A private three-vendor federation (swapping the process registry
    around a shared session-scoped one would leak)."""
    internet = SimulatedInternet(seed=seed)
    resource = Resource("NeutralityFederation")
    plans = [
        ("Hf-Db", "AcmeSearch", {"databases": 1.0}),
        ("Hf-Net", "OkapiWorks", {"networking": 1.0}),
        ("Hf-Med", "InferNet", {"medicine": 1.0}),
    ]
    for index, (source_id, vendor, topics) in enumerate(plans):
        documents = generate_collection(
            CollectionSpec(name=source_id, topics=topics, size=40, seed=200 + index)
        )
        resource.add_source(build_vendor_source(vendor, source_id, documents))
    url = "http://health.example.org"
    publish_resource(internet, resource, url)
    return internet, f"{url}/resource"


def _query(text: str):
    return SQuery(
        ranking_expression=parse_expression(f'(body-of-text "{text}")'),
        max_number_documents=5,
    )


class TestDisabledRegistryNeutrality:
    @staticmethod
    def _run(registry: MetricsRegistry):
        internet, resource_url = _federation(seed=13)
        previous = get_registry()
        set_registry(registry)
        try:
            searcher = Metasearcher(internet, [resource_url])
            searcher.refresh()
            result = searcher.search(_query("databases networking"), k_sources=3)
        finally:
            set_registry(previous)
        return result

    def test_disabled_registry_restores_pre_instrumentation_behavior(self):
        enabled = self._run(MetricsRegistry())
        disabled = self._run(MetricsRegistry.disabled())
        assert (
            [(d.linkage, d.score, d.source_id) for d in enabled.documents]
            == [(d.linkage, d.score, d.source_id) for d in disabled.documents]
        )
        assert enabled.selected_sources == disabled.selected_sources
        assert enabled.outcome_counts() == disabled.outcome_counts()
        # The simulated wire is seeded, so even latencies agree.
        assert enabled.query_latency_serial_ms == disabled.query_latency_serial_ms
