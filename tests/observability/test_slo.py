"""SLOs: objectives, error budgets, multi-window burn alerts."""

import pytest

from repro.observability import (
    BurnWindow,
    MetricsRegistry,
    SloMonitor,
    SloObjective,
    SloPolicy,
)


def _availability(target=0.99, family="ops_total"):
    return SloObjective(
        name="ops-availability",
        kind="availability",
        target=target,
        family=family,
        label="result",
        bad_values=("error",),
    )


def _latency(target=0.9, threshold_ms=100.0):
    return SloObjective(
        name="ops-latency",
        kind="latency",
        target=target,
        family="ops_ms",
        threshold_ms=threshold_ms,
    )


def _count(registry, result, n):
    counter = registry.counter("ops_total", labels=("result",))
    for _ in range(n):
        counter.labels(result=result).inc()


class TestObjectiveValidation:
    def test_unknown_kind_rejected(self):
        with pytest.raises(ValueError, match="kind"):
            SloObjective(name="x", kind="throughput", target=0.9, family="f")

    def test_target_must_be_a_fraction(self):
        for target in (0.0, 1.0, 1.5):
            with pytest.raises(ValueError, match="target"):
                _availability(target=target)

    def test_availability_needs_a_label(self):
        with pytest.raises(ValueError, match="label"):
            SloObjective(
                name="x", kind="availability", target=0.9, family="f"
            )

    def test_latency_needs_a_threshold(self):
        with pytest.raises(ValueError, match="threshold"):
            SloObjective(name="x", kind="latency", target=0.9, family="f")

    def test_burn_window_ordering_enforced(self):
        with pytest.raises(ValueError):
            BurnWindow(long_ms=100.0, short_ms=100.0, factor=2.0)
        with pytest.raises(ValueError):
            BurnWindow(long_ms=200.0, short_ms=100.0, factor=1.0)


class TestTotals:
    def test_missing_family_is_vacuously_met(self):
        registry = MetricsRegistry()
        assert _availability().totals(registry) == (0.0, 0.0)

    def test_availability_splits_good_from_bad(self):
        registry = MetricsRegistry()
        _count(registry, "ok", 97)
        _count(registry, "error", 3)
        assert _availability().totals(registry) == (97.0, 100.0)

    def test_latency_counts_buckets_under_threshold(self):
        registry = MetricsRegistry()
        histogram = registry.histogram(
            "ops_ms", buckets=(50.0, 100.0, 200.0)
        )
        for value in (10.0, 60.0, 100.0, 150.0, 500.0):
            histogram.observe(value)
        # Threshold 100 is a bucket bound: 10, 60, 100 are provably good.
        good, total = _latency(threshold_ms=100.0).totals(registry)
        assert (good, total) == (3.0, 5.0)

    def test_off_bound_threshold_is_conservative(self):
        registry = MetricsRegistry()
        histogram = registry.histogram("ops_ms", buckets=(50.0, 100.0))
        histogram.observe(60.0)  # actually under 75, but not provably
        good, _ = _latency(threshold_ms=75.0).totals(registry)
        assert good == 0.0


class TestBudget:
    def _monitor(self, registry, clock=None):
        policy = SloPolicy(objectives=(_availability(),))
        return SloMonitor(policy=policy, registry=registry, clock=clock)

    def test_untouched_budget_before_any_event(self):
        registry = MetricsRegistry()
        monitor = self._monitor(registry)
        (report,) = monitor.evaluate()
        assert report.compliance == 1.0
        assert report.budget_remaining == 1.0

    def test_budget_halves_at_half_the_allowed_failures(self):
        registry = MetricsRegistry()
        _count(registry, "ok", 995)
        _count(registry, "error", 5)  # 0.5% bad of the allowed 1%
        (report,) = self._monitor(registry).evaluate()
        assert report.budget_remaining == pytest.approx(0.5)

    def test_budget_clamps_at_zero_when_overspent(self):
        registry = MetricsRegistry()
        _count(registry, "ok", 50)
        _count(registry, "error", 50)
        (report,) = self._monitor(registry).evaluate()
        assert report.budget_remaining == 0.0
        assert "EXHAUSTED" in report.describe()


class TestBurnAlerts:
    def _fixture(self):
        registry = MetricsRegistry()
        clock = {"now": 0.0}
        policy = SloPolicy(
            objectives=(_availability(),),
            windows=(BurnWindow(long_ms=60_000.0, short_ms=5_000.0, factor=10.0),),
        )
        monitor = SloMonitor(
            policy=policy, registry=registry, clock=lambda: clock["now"]
        )
        return registry, clock, monitor

    def _advance(self, clock, seconds):
        clock["now"] += seconds

    def test_fast_burn_fires_when_both_windows_exceed(self):
        registry, clock, monitor = self._fixture()
        monitor.snapshot()
        self._advance(clock, 70.0)
        monitor.snapshot()
        self._advance(clock, 10.0)
        # 50% failures against a 1% budget = 50x burn in both windows.
        _count(registry, "ok", 10)
        _count(registry, "error", 10)
        (report,) = monitor.evaluate()
        assert len(report.alerts) == 1
        alert = report.alerts[0]
        assert alert.long_burn >= 10.0
        assert alert.short_burn >= 10.0
        assert "burn" in alert.describe()

    def test_old_burn_alone_does_not_fire(self):
        registry, clock, monitor = self._fixture()
        monitor.snapshot()
        self._advance(clock, 70.0)
        monitor.snapshot()
        _count(registry, "ok", 10)
        _count(registry, "error", 10)
        self._advance(clock, 10.0)
        monitor.snapshot()  # the bad burst is now older than the short window
        self._advance(clock, 6.0)
        _count(registry, "ok", 100)  # short window sees only clean traffic
        (report,) = monitor.evaluate()
        assert report.alerts == []

    def test_no_baseline_means_silence(self):
        registry, _, monitor = self._fixture()
        _count(registry, "error", 100)
        (report,) = monitor.evaluate()
        assert report.alerts == []
        assert report.budget_remaining == 0.0


class TestGaugesAndDescribe:
    def test_export_gauges_publishes_per_objective(self):
        registry = MetricsRegistry()
        _count(registry, "ok", 100)
        policy = SloPolicy(objectives=(_availability(),))
        monitor = SloMonitor(policy=policy, registry=registry)
        monitor.export_gauges()
        family = registry.family("slo_error_budget_remaining")
        assert family is not None
        assert family.labels(objective="ops-availability").value == 1.0
        compliance = registry.family("slo_compliance")
        assert compliance.labels(objective="ops-availability").value == 1.0

    def test_default_policy_covers_search_promises(self):
        names = {o.name for o in SloPolicy.default().objectives}
        assert names == {
            "search-availability",
            "search-latency-p99",
            "stream-first-result",
        }

    def test_describe_is_one_line_per_objective(self):
        registry = MetricsRegistry()
        monitor = SloMonitor(registry=registry)
        lines = monitor.describe().split("\n")
        assert len(lines) == len(SloPolicy.default().objectives)
