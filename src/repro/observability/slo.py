"""SLOs over the live metrics: objectives, error budgets, burn rates.

The registry answers "what is the p99 *right now*"; operating a
metasearcher needs the next question — "are we inside the promise we
made, and how fast are we spending the slack?"  This module evaluates
declarative :class:`SloObjective`\\ s straight from a
:class:`~repro.observability.MetricsRegistry`:

* **availability** objectives read a labeled counter family and count
  the children whose label value is in ``bad_values`` as failures
  (default: searches that ended ``error``);
* **latency** objectives read a histogram family and count the
  observations at or under ``threshold_ms`` as good — exact whenever
  the threshold is a bucket bound, conservative otherwise.

A :class:`SloMonitor` turns those into **error budgets** (the fraction
of the allowed failure rate still unspent) and multi-window **burn
rates** (Google-SRE-style long/short window pairs: a page fires only
when both windows burn faster than the pair's factor, so one bad
second cannot page and a slow leak still does).  The monitor exports a
``slo_error_budget_remaining`` gauge family back into the registry.
"""

from __future__ import annotations

import threading
import time
from dataclasses import dataclass, field as dataclass_field

from repro.observability.metrics import (
    Histogram,
    MetricsRegistry,
    get_registry,
)

__all__ = [
    "BurnAlert",
    "BurnWindow",
    "SloMonitor",
    "SloObjective",
    "SloPolicy",
    "SloReport",
]


@dataclass(frozen=True)
class SloObjective:
    """One declarative objective evaluated from the metrics registry.

    Attributes:
        name: the objective's id (gauge label, report key).
        kind: ``"availability"`` (labeled counter, ``bad_values`` are
            failures) or ``"latency"`` (histogram, observations at or
            under ``threshold_ms`` are good).
        target: the promised good fraction, e.g. ``0.99``.
        family: the metric family the objective reads.
        label: for availability — the label that classifies outcomes.
        bad_values: for availability — label values that count as bad.
        threshold_ms: for latency — the good/bad boundary.
    """

    name: str
    kind: str
    target: float
    family: str
    label: str = ""
    bad_values: tuple[str, ...] = ()
    threshold_ms: float = 0.0

    def __post_init__(self) -> None:
        if self.kind not in ("availability", "latency"):
            raise ValueError(f"unknown objective kind: {self.kind!r}")
        if not 0.0 < self.target < 1.0:
            raise ValueError("target must be strictly between 0 and 1")
        if self.kind == "availability" and not self.label:
            raise ValueError("availability objectives need a label")
        if self.kind == "latency" and self.threshold_ms <= 0:
            raise ValueError("latency objectives need threshold_ms > 0")

    def totals(self, registry: MetricsRegistry) -> tuple[float, float]:
        """``(good, total)`` events observed so far (both 0.0 when the
        family has recorded nothing — the objective is then vacuously
        met)."""
        family = registry.family(self.family)
        if family is None:
            return 0.0, 0.0
        if self.kind == "availability":
            good = total = 0.0
            try:
                index = family.label_names.index(self.label)
            except ValueError:
                return 0.0, 0.0
            for label_values, instrument in family.children():
                value = float(instrument.value)
                total += value
                if label_values[index] not in self.bad_values:
                    good += value
            return good, total
        good = total = 0.0
        for _, instrument in family.children():
            good += self._under_threshold(instrument)
            total += instrument.count
        return good, float(total)

    def _under_threshold(self, histogram: Histogram) -> float:
        """Observations at or under the threshold, from the buckets.

        Bucket ``i`` holds values in ``(bounds[i-1], bounds[i]]``, so
        the count is exact when the threshold is a bound and otherwise
        undercounts (conservative: never claims good events it cannot
        prove).
        """
        good = 0
        for bound, bucket_count in zip(histogram.bounds, histogram.bucket_counts):
            if bound > self.threshold_ms:
                break
            good += bucket_count
        return float(good)


@dataclass(frozen=True)
class BurnWindow:
    """One long/short burn-rate window pair.

    The alert for this pair fires when the error budget burned per unit
    time exceeds ``factor`` times the sustainable rate over *both*
    windows — the long window proves the burn is real, the short one
    proves it is still happening.
    """

    long_ms: float
    short_ms: float
    factor: float

    def __post_init__(self) -> None:
        if self.short_ms <= 0 or self.long_ms <= self.short_ms:
            raise ValueError("need 0 < short_ms < long_ms")
        if self.factor <= 1.0:
            raise ValueError("factor must exceed 1.0")


@dataclass(frozen=True)
class SloPolicy:
    """The objectives a deployment promises, plus its alert windows."""

    objectives: tuple[SloObjective, ...]
    windows: tuple[BurnWindow, ...] = (
        BurnWindow(long_ms=3_600_000.0, short_ms=300_000.0, factor=14.4),
        BurnWindow(long_ms=21_600_000.0, short_ms=1_800_000.0, factor=6.0),
    )

    @classmethod
    def default(cls) -> "SloPolicy":
        """The stock metasearch promise: availability, p99, first result."""
        return cls(
            objectives=(
                SloObjective(
                    name="search-availability",
                    kind="availability",
                    target=0.99,
                    family="metasearch_searches_total",
                    label="result",
                    bad_values=("error",),
                ),
                SloObjective(
                    name="search-latency-p99",
                    kind="latency",
                    target=0.99,
                    family="metasearch_search_ms",
                    threshold_ms=500.0,
                ),
                SloObjective(
                    name="stream-first-result",
                    kind="latency",
                    target=0.95,
                    family="stream_first_result_ms",
                    threshold_ms=250.0,
                ),
            )
        )


@dataclass(frozen=True)
class BurnAlert:
    """One fired burn-rate alert, for a report's ``alerts`` list."""

    objective: str
    window: BurnWindow
    long_burn: float
    short_burn: float

    def describe(self) -> str:
        return (
            f"{self.objective}: burn {self.long_burn:.1f}x over "
            f"{self.window.long_ms / 60000.0:.0f}m and "
            f"{self.short_burn:.1f}x over "
            f"{self.window.short_ms / 60000.0:.1f}m "
            f"(threshold {self.window.factor:.1f}x)"
        )


@dataclass
class SloReport:
    """One objective's evaluated state."""

    objective: SloObjective
    good: float
    total: float
    alerts: list[BurnAlert] = dataclass_field(default_factory=list)

    @property
    def compliance(self) -> float:
        """Good fraction so far; 1.0 before any event."""
        return self.good / self.total if self.total else 1.0

    @property
    def budget_remaining(self) -> float:
        """Error budget left, 0-1: 1 = untouched, 0 = spent (clamped)."""
        allowed = 1.0 - self.objective.target
        burned = (1.0 - self.compliance) / allowed
        return min(max(1.0 - burned, 0.0), 1.0)

    def describe(self) -> str:
        status = "OK" if self.budget_remaining > 0 else "EXHAUSTED"
        line = (
            f"{self.objective.name:<22} target={self.objective.target:.3f} "
            f"compliance={self.compliance:.4f} "
            f"budget={self.budget_remaining * 100:5.1f}% {status}"
        )
        for alert in self.alerts:
            line += f"\n  ALERT {alert.describe()}"
        return line


class SloMonitor:
    """Evaluates a policy's objectives against the live registry.

    Call :meth:`snapshot` periodically (each zipf-replay round, a
    scrape loop, a test step) to give the burn-rate windows their
    history; :meth:`evaluate` is always available and burn alerts just
    stay silent until two snapshots cover a window.
    """

    def __init__(
        self,
        policy: SloPolicy | None = None,
        registry: MetricsRegistry | None = None,
        clock=None,
    ) -> None:
        self.policy = policy or SloPolicy.default()
        self._registry = registry
        self._clock = clock or time.monotonic
        self._origin = self._clock()
        self._lock = threading.Lock()
        #: (monitor ms, {objective name: (good, total)}) history.
        self._snapshots: list[tuple[float, dict[str, tuple[float, float]]]] = []

    def registry(self) -> MetricsRegistry:
        return self._registry if self._registry is not None else get_registry()

    def now_ms(self) -> float:
        return (self._clock() - self._origin) * 1000.0

    def _totals(self) -> dict[str, tuple[float, float]]:
        registry = self.registry()
        return {
            objective.name: objective.totals(registry)
            for objective in self.policy.objectives
        }

    def snapshot(self) -> None:
        """Record the current totals for burn-window evaluation."""
        now = self.now_ms()
        totals = self._totals()
        horizon = max(
            (window.long_ms for window in self.policy.windows), default=0.0
        )
        with self._lock:
            self._snapshots.append((now, totals))
            # Keep one snapshot older than the horizon so the longest
            # window always has a baseline to diff against.
            while (
                len(self._snapshots) > 2
                and now - self._snapshots[1][0] > horizon
            ):
                self._snapshots.pop(0)

    def _window_burn(
        self, objective: SloObjective, now_totals: tuple[float, float],
        now: float, window_ms: float,
    ) -> float:
        """Budget burn rate over the trailing window (1.0 = sustainable).

        0.0 when no snapshot predates the window — silence, not alarm.
        """
        with self._lock:
            baseline = None
            for stamp, totals in reversed(self._snapshots):
                if now - stamp >= window_ms:
                    baseline = totals.get(objective.name, (0.0, 0.0))
                    break
            if baseline is None:
                return 0.0
        good, total = now_totals
        base_good, base_total = baseline
        events = total - base_total
        if events <= 0:
            return 0.0
        bad_fraction = ((total - good) - (base_total - base_good)) / events
        return bad_fraction / (1.0 - objective.target)

    def evaluate(self) -> list[SloReport]:
        """Every objective's compliance, budget, and fired burn alerts."""
        now = self.now_ms()
        reports: list[SloReport] = []
        current = self._totals()
        for objective in self.policy.objectives:
            good, total = current[objective.name]
            report = SloReport(objective, good, total)
            for window in self.policy.windows:
                long_burn = self._window_burn(
                    objective, (good, total), now, window.long_ms
                )
                short_burn = self._window_burn(
                    objective, (good, total), now, window.short_ms
                )
                if long_burn >= window.factor and short_burn >= window.factor:
                    report.alerts.append(
                        BurnAlert(objective.name, window, long_burn, short_burn)
                    )
            reports.append(report)
        return reports

    def export_gauges(self) -> None:
        """Publish per-objective gauges back into the registry."""
        registry = self.registry()
        budget = registry.gauge(
            "slo_error_budget_remaining",
            "Fraction of each SLO's error budget still unspent (0-1).",
            labels=("objective",),
        )
        compliance = registry.gauge(
            "slo_compliance",
            "Observed good fraction per SLO objective (0-1).",
            labels=("objective",),
        )
        for report in self.evaluate():
            budget.labels(objective=report.objective.name).set(
                report.budget_remaining
            )
            compliance.labels(objective=report.objective.name).set(
                report.compliance
            )

    def describe(self) -> str:
        """A terminal-ready multi-line budget readout."""
        return "\n".join(report.describe() for report in self.evaluate())
