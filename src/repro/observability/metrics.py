"""A process-wide metrics registry: counters, gauges, histograms.

A :class:`~repro.observability.Tracer` sees one operation at a time,
and what one search did — its sources' requests, retries, cost, cache
decisions — is on that search's own record (its outcomes, its query-log
record, its trace), never counted here a second time.  This module is
the *longitudinal* view of what has no per-search record yet: the
engine's evaluation, the segment store's flushes and merges, the async
executor's in-flight tasks.

* :class:`Counter` — a monotonically increasing total;
* :class:`Gauge` — a value that goes both ways (sizes, depths,
  live entry counts);
* :class:`Histogram` — fixed log-scale bucket bounds with exact
  sum/count (whoever scrapes the buckets estimates the percentiles);
* :class:`MetricFamily` — a named, typed group of instruments keyed by
  label values (``executor_inflight_tasks{executor}``);
* :class:`MetricsRegistry` — the thread-safe home of every family,
  idempotent on registration so instrumenting code can re-acquire its
  families on every call without bookkeeping.

One registry is process-wide (:func:`get_registry`); tests and
embedders swap it with :func:`set_registry`.  A *disabled* registry
(:meth:`MetricsRegistry.disabled`) hands out no-op instruments, so the
instrumented code paths cost two dictionary lookups and nothing else —
the off switch that keeps the paper-faithful pipeline byte-identical.

Everything here is dependency-free; the Prometheus/Chrome/NDJSON
renderings live in :mod:`repro.observability.export`.
"""

from __future__ import annotations

import bisect
import math
import threading

__all__ = [
    "Counter",
    "Gauge",
    "Histogram",
    "MetricFamily",
    "MetricsRegistry",
    "DEFAULT_LATENCY_BUCKETS_MS",
    "get_registry",
    "set_registry",
    "log_scale_buckets",
]


def log_scale_buckets(
    start: float, stop: float, per_decade: int = 3
) -> tuple[float, ...]:
    """Fixed log-scale bucket bounds from ``start`` up to ``stop``.

    ``per_decade=3`` yields the classic 1-2.5-5 mantissa ladder
    (…, 1, 2.5, 5, 10, 25, 50, …); the bounds are deterministic so two
    histograms with the same arguments always agree bucket for bucket.
    """
    if start <= 0 or stop <= start:
        raise ValueError("need 0 < start < stop")
    mantissas = {3: (1.0, 2.5, 5.0), 2: (1.0, 3.0), 1: (1.0,)}.get(per_decade)
    if mantissas is None:
        raise ValueError("per_decade must be 1, 2 or 3")
    bounds: list[float] = []
    scale = 1.0
    while scale <= stop * 10.0:
        for mantissa in mantissas:
            bound = mantissa * scale
            if start <= bound <= stop:
                bounds.append(bound)
        scale *= 10.0
    if not bounds or bounds[-1] < stop:
        bounds.append(stop)
    return tuple(bounds)


#: Default bounds for latency histograms: 0.1ms to 60s, 1-2.5-5 ladder.
DEFAULT_LATENCY_BUCKETS_MS = log_scale_buckets(0.1, 60_000.0)


class Counter:
    """A monotonically increasing total (thread safe)."""

    __slots__ = ("_lock", "value")

    def __init__(self) -> None:
        self._lock = threading.Lock()
        self.value = 0.0

    def inc(self, amount: float = 1.0) -> None:
        if amount < 0:
            raise ValueError("counters only go up")
        with self._lock:
            self.value += amount


class Gauge:
    """A value that can go up and down (thread safe)."""

    __slots__ = ("_lock", "value")

    def __init__(self) -> None:
        self._lock = threading.Lock()
        self.value = 0.0

    def set(self, value: float) -> None:
        with self._lock:
            self.value = float(value)

    def inc(self, amount: float = 1.0) -> None:
        with self._lock:
            self.value += amount

    def dec(self, amount: float = 1.0) -> None:
        self.inc(-amount)


class Histogram:
    """Bucketed observations with an exact sum and count.

    Bucket bounds are fixed at construction (log-scale by default);
    observations land in the first bucket whose upper bound is >= the
    value, with one implicit overflow bucket past the last bound.
    NaN observations raise: they would poison ``sum`` and land in an
    arbitrary bucket.  ``+inf`` is accepted (overflow bucket).
    """

    __slots__ = ("_lock", "bounds", "bucket_counts", "sum", "count")

    def __init__(self, bounds: tuple[float, ...] = DEFAULT_LATENCY_BUCKETS_MS) -> None:
        if not bounds or list(bounds) != sorted(bounds):
            raise ValueError("bucket bounds must be non-empty and ascending")
        self._lock = threading.Lock()
        self.bounds = tuple(float(bound) for bound in bounds)
        self.bucket_counts = [0] * (len(self.bounds) + 1)
        self.sum = 0.0
        self.count = 0

    def observe(self, value: float) -> None:
        if math.isnan(value):
            raise ValueError("cannot observe NaN")
        index = bisect.bisect_left(self.bounds, value)
        with self._lock:
            self.bucket_counts[index] += 1
            self.sum += value
            self.count += 1


class _NullInstrument:
    """The do-nothing instrument a disabled registry hands out."""

    __slots__ = ()

    def labels(self, **_labels: str) -> "_NullInstrument":
        return self

    def inc(self, amount: float = 1.0) -> None:
        pass

    def dec(self, amount: float = 1.0) -> None:
        pass

    def set(self, value: float) -> None:
        pass

    def observe(self, value: float) -> None:
        pass


_NULL = _NullInstrument()

_KINDS = {"counter": Counter, "gauge": Gauge, "histogram": Histogram}


class MetricFamily:
    """A named, typed metric with one child instrument per label tuple.

    ``family.labels(source_id="S1", outcome="ok")`` returns (creating
    on first use) the child for those label values; a family declared
    with no label names acts as its own single child, so
    ``family.inc()`` / ``family.observe(...)`` work directly.
    """

    def __init__(
        self,
        kind: str,
        name: str,
        help_text: str = "",
        label_names: tuple[str, ...] = (),
        buckets: tuple[float, ...] | None = None,
    ) -> None:
        if kind not in _KINDS:
            raise ValueError(f"unknown metric kind: {kind!r}")
        self.kind = kind
        self.name = name
        self.help_text = help_text
        self.label_names = tuple(label_names)
        self._buckets = buckets
        self._lock = threading.Lock()
        self._children: dict[tuple[str, ...], object] = {}

    def _make_child(self):
        if self.kind == "histogram":
            return Histogram(self._buckets or DEFAULT_LATENCY_BUCKETS_MS)
        return _KINDS[self.kind]()

    def labels(self, **labels: str):
        """The child instrument for these label values (created lazily)."""
        try:
            key = tuple(str(labels[name]) for name in self.label_names)
        except KeyError as missing:
            raise ValueError(
                f"{self.name} requires labels {self.label_names}, got "
                f"{tuple(labels)}"
            ) from missing
        if len(labels) != len(self.label_names):
            raise ValueError(
                f"{self.name} requires labels {self.label_names}, got "
                f"{tuple(labels)}"
            )
        child = self._children.get(key)
        if child is None:
            with self._lock:
                child = self._children.setdefault(key, self._make_child())
        return child

    def children(self) -> list[tuple[tuple[str, ...], object]]:
        """(label values, instrument) pairs, sorted by label values."""
        with self._lock:
            return sorted(self._children.items())

    # -- zero-label convenience -------------------------------------------

    def _default_child(self):
        if self.label_names:
            raise ValueError(f"{self.name} is labeled; use .labels(...)")
        return self.labels()

    def inc(self, amount: float = 1.0) -> None:
        self._default_child().inc(amount)

    def dec(self, amount: float = 1.0) -> None:
        self._default_child().dec(amount)

    def set(self, value: float) -> None:
        self._default_child().set(value)

    def observe(self, value: float) -> None:
        self._default_child().observe(value)


class MetricsRegistry:
    """The thread-safe, process-wide home of every metric family.

    Registration is idempotent: asking for an existing name returns the
    existing family (the declared kind and label names must match), so
    instrumented code simply re-declares its metrics at every call site
    — no globals, no initialization order.

    A registry built with ``enabled=False`` (or via :meth:`disabled`)
    hands out a shared no-op instrument from every declaration: the
    instrumentation points stay in place but record nothing, and
    :meth:`families` reports empty — the exporters render an empty
    exposition.
    """

    def __init__(self, enabled: bool = True) -> None:
        self.enabled = enabled
        self._lock = threading.Lock()
        self._families: dict[str, MetricFamily] = {}

    @classmethod
    def disabled(cls) -> "MetricsRegistry":
        """A registry whose instruments are all no-ops."""
        return cls(enabled=False)

    def _family(
        self,
        kind: str,
        name: str,
        help_text: str,
        label_names: tuple[str, ...],
        buckets: tuple[float, ...] | None = None,
    ):
        if not self.enabled:
            return _NULL
        family = self._families.get(name)
        if family is None:
            with self._lock:
                family = self._families.get(name)
                if family is None:
                    family = MetricFamily(
                        kind, name, help_text, tuple(label_names), buckets
                    )
                    self._families[name] = family
        if family.kind != kind or family.label_names != tuple(label_names):
            raise ValueError(
                f"metric {name!r} already registered as {family.kind} with "
                f"labels {family.label_names}; cannot redeclare as {kind} "
                f"with labels {tuple(label_names)}"
            )
        return family

    def counter(self, name: str, help_text: str = "", labels: tuple[str, ...] = ()):
        return self._family("counter", name, help_text, labels)

    def gauge(self, name: str, help_text: str = "", labels: tuple[str, ...] = ()):
        return self._family("gauge", name, help_text, labels)

    def histogram(
        self,
        name: str,
        help_text: str = "",
        labels: tuple[str, ...] = (),
        buckets: tuple[float, ...] | None = None,
    ):
        return self._family("histogram", name, help_text, labels, buckets)

    def families(self) -> list[MetricFamily]:
        """Every registered family, sorted by name."""
        with self._lock:
            return [self._families[name] for name in sorted(self._families)]

    def family(self, name: str) -> MetricFamily | None:
        with self._lock:
            return self._families.get(name)

    def reset(self) -> None:
        """Drop every family — a fresh slate for tests."""
        with self._lock:
            self._families.clear()


_default_registry = MetricsRegistry()
_registry_lock = threading.Lock()


def get_registry() -> MetricsRegistry:
    """The process-wide registry every instrumented module records to."""
    return _default_registry


def set_registry(registry: MetricsRegistry) -> MetricsRegistry:
    """Swap the process-wide registry (tests, embedders); returns it."""
    global _default_registry
    with _registry_lock:
        _default_registry = registry
    return registry
