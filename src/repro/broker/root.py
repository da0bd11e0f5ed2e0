"""The root broker: selection-over-brokers with exact descent.

A query round against the hierarchy is two fan-outs over the
:class:`~repro.federation.Executor` protocol:

1. **Probe** — every leaf returns its :class:`~repro.broker.LeafProbe`:
   aggregate corpus statistics plus per-query-term shard sizes.  The
   root sums the integer statistics into the exact
   :class:`~repro.broker.CorpusStats` of the whole federation.
2. **Descend** — only into leaves whose shards contain at least one
   query term (for *prunable* selectors; others always descend).  Each
   descended leaf scores its shard through a
   :class:`~repro.broker.GlobalStatsView` and returns its exact top-k
   fragment; a pruned leaf is stood in for by its probe's first-k
   source ids at the selector's ``sparse_default`` — provably the score
   of every source it holds.  Merging all fragments with
   :func:`~repro.metasearch.selection.order_key` reproduces the flat
   index's top-k bit for bit.

The root is itself a leaf handle — ``probe`` / ``select_candidates`` /
``apply_delta`` — so hierarchies nest: a sub-root aggregates its own
children's probes and passes the *global* statistics it was handed
straight down, keeping exactness through any depth.

The root carries no recovery machinery.  A child that cannot be
consulted raises out of the selection; the flat index the hierarchy is
fed from answers then — see :class:`~repro.broker.BrokeredMetasearcher`.
"""

from __future__ import annotations

import heapq
from collections.abc import Callable, Sequence
from typing import Protocol, runtime_checkable

from repro.broker.leaf import CorpusStats, LeafProbe
from repro.broker.partition import ConsistentHashRing
from repro.federation.executor import Executor, SerialExecutor
from repro.metasearch.selection import SourceSelector, order_key
from repro.observability.metrics import get_registry, linear_buckets
from repro.observability.tracing import ambient_span, current_ambient_span
from repro.starts.metadata import SContentSummary

__all__ = ["LeafHandle", "RootBroker"]

#: Virtual nodes per leaf on the routing ring: enough to keep the
#: shard-size spread, and with it the slowest leaf of a fan-out, tight.
_RING_VIRTUAL_NODES = 128


@runtime_checkable
class LeafHandle(Protocol):
    """What the root requires of a child — a leaf or a sub-root."""

    leaf_id: str

    def probe(self, terms: Sequence[str], k: int) -> LeafProbe: ...

    def select_candidates(
        self,
        selector: SourceSelector,
        terms: Sequence[str],
        k: int,
        stats: CorpusStats,
    ) -> list[tuple[str, float]]: ...

    def apply_delta(self, source_id: str, summary: SContentSummary | None) -> None: ...


def _aggregate_stats(terms: Sequence[str], probes: Sequence[LeafProbe]) -> CorpusStats:
    """Sum the leaves' integer statistics — exact in any order."""
    collection_frequencies: dict[str, int] = {}
    for position, term in enumerate(terms):
        collection_frequencies[term] = sum(
            probe.term_collection_frequencies[position] for probe in probes
        )
    return CorpusStats(
        n_sources=sum(probe.n_sources for probe in probes),
        clamped_mass_total=sum(probe.clamped_mass_total for probe in probes),
        collection_frequencies=collection_frequencies,
    )


class RootBroker:
    """Selection-over-brokers: probe, prune, descend, merge.

    Args:
        handles: the children — :class:`~repro.broker.LeafBroker` or
            nested :class:`RootBroker` instances.
        executor: drives both fan-out rounds; defaults to serial.
        broker_id: this node's name as a child of a bigger hierarchy.
    """

    def __init__(
        self,
        handles: Sequence[LeafHandle],
        executor: Executor | None = None,
        broker_id: str = "root",
    ) -> None:
        seen: set[str] = set()
        for handle in handles:
            if handle.leaf_id in seen:
                raise ValueError(f"duplicate leaf id: {handle.leaf_id!r}")
            seen.add(handle.leaf_id)
        self.leaf_id = broker_id
        self._handles: list[LeafHandle] = list(handles)
        self._by_id = {handle.leaf_id: handle for handle in self._handles}
        self.executor: Executor = executor or SerialExecutor()
        self.ring = ConsistentHashRing(self._by_id, replicas=_RING_VIRTUAL_NODES)

    # -- topology ----------------------------------------------------------

    def handles(self) -> list[LeafHandle]:
        return list(self._handles)

    def handle(self, leaf_id: str) -> LeafHandle:
        return self._by_id[leaf_id]

    def routing_table(self, source_ids: Sequence[str]) -> dict[str, list[str]]:
        """leaf id → the given sources it owns, per the ring."""
        return self.ring.assignments(source_ids)

    # -- the delta stream --------------------------------------------------

    def apply_delta(self, source_id: str, summary: SContentSummary | None) -> None:
        """Route one discovery delta to the owning child."""
        self._by_id[self.ring.locate(source_id)].apply_delta(source_id, summary)

    # -- consulting children -----------------------------------------------

    def _consult(
        self,
        handles: Sequence[LeafHandle],
        fn: Callable[[LeafHandle], object],
        op: str,
    ) -> list[object]:
        """Fan ``fn`` out over ``handles``; results in handle order.

        A child that raises ends the selection with that error — the
        root does not retry.

        When an ambient span is active in the *calling* thread, each
        per-leaf call gets its own ``rpc:{op}:{leaf}`` child span, which
        is the ambient span inside the worker (a nested root hangs its
        own calls under it).  Contextvars do not cross the executor's
        worker threads, hence the explicit capture here.
        """
        ambient = current_ambient_span()
        if ambient is None:
            return self.executor.run(handles, fn)
        tracer, parent = ambient

        def traced(handle: LeafHandle) -> object:
            rpc = tracer.open_span(f"rpc:{op}:{handle.leaf_id}", parent=parent)
            try:
                with ambient_span(tracer, rpc):
                    return fn(handle)
            except Exception as error:
                rpc.annotate(error=repr(error))
                raise
            finally:
                tracer.close_span(rpc)

        return self.executor.run(handles, traced)

    # -- selection ---------------------------------------------------------

    def _probe_children(self, terms: Sequence[str], k: int) -> list[LeafProbe]:
        return self._consult(  # type: ignore[return-value]
            self._handles, lambda handle: handle.probe(terms, k), op="probe"
        )

    def _descend(
        self,
        selector: SourceSelector,
        terms: Sequence[str],
        k: int,
        stats: CorpusStats,
        probes: Sequence[LeafProbe],
    ) -> list[tuple[str, float]]:
        """Rounds two and three: descend, fill, merge — the exact top-k.

        Pruning only when provably exact: a leaf is prunable when the
        selector promises that a shard with no query term scores every
        source at ``sparse_default`` — then the probe's fill ids stand
        in for the whole leaf.
        """
        descend, pruned = list(probes), []
        if getattr(selector, "prunable", False) and terms:
            descend = [probe for probe in probes if probe.touches()]
            pruned = [probe for probe in probes if not probe.touches()]
        registry = get_registry()
        selections = registry.counter(
            "broker_leaf_selections_total",
            "Leaf shards actually scored for a brokered selection.",
            labels=("leaf",),
        )
        by_id = self._by_id
        fragments = self._consult(
            [by_id[probe.leaf_id] for probe in descend],
            lambda handle: handle.select_candidates(selector, terms, k, stats),
            op="select",
        )
        pool: list[tuple[str, float]] = []
        for probe, fragment in zip(descend, fragments):
            selections.labels(leaf=probe.leaf_id).inc()
            pool.extend(fragment)  # type: ignore[arg-type]
        if pruned:
            default = selector.sparse_default(terms, stats.n_sources)
            for probe in pruned:
                pool.extend(
                    (source_id, default) for source_id in probe.fill_ids
                )
        registry.histogram(
            "broker_route_depth",
            "Leaves descended into (shards scored) per brokered selection.",
            buckets=linear_buckets(0.0, 16.0),
        ).observe(float(len(descend)))
        return heapq.nsmallest(k, pool, key=order_key)

    def top_candidates(
        self,
        selector: SourceSelector,
        terms: Sequence[str],
        k: int,
    ) -> list[tuple[str, float]]:
        """The hierarchy's exact global top-k ``(source_id, goodness)``.

        With ``k`` at or above the source count this is the full global
        ranking — the same path, nothing pruned out of the answer.
        """
        if not getattr(selector, "distributable", False):
            raise ValueError(
                f"selector {selector.name!r} is not distributable across "
                "broker shards; use the flat index for it"
            )
        if k <= 0 or not self._handles:
            return []
        probes = self._probe_children(terms, k)
        return self._descend(
            selector, terms, k, _aggregate_stats(terms, probes), probes
        )

    def select(
        self,
        selector: SourceSelector,
        terms: Sequence[str],
        k: int,
        tracer=None,
    ) -> list[str]:
        """The ids of the exact top-k sources, best first.

        Bit-identical to ``selector.select(terms, flat_index, k)`` for
        any distributable selector — the flat index stays the oracle of
        this subsystem.
        """
        if tracer is None:
            merged = self.top_candidates(selector, terms, k)
        else:
            with tracer.span(
                "select:broker", selector=selector.name, k=k, leaves=len(self._handles)
            ) as span:
                with ambient_span(tracer, span):
                    merged = self.top_candidates(selector, terms, k)
                span.annotate(selected=" ".join(source_id for source_id, _ in merged))
        return [source_id for source_id, _ in merged]

    # -- the LeafHandle protocol: roots nest -------------------------------

    def probe(self, terms: Sequence[str], k: int) -> LeafProbe:
        """Aggregate the children's probes into this subtree's claim."""
        probes = self._probe_children(terms, k)
        fill: list[str] = []
        for probe in probes:
            fill.extend(probe.fill_ids)
        fill.sort()
        n_terms = len(terms)
        return LeafProbe(
            leaf_id=self.leaf_id,
            n_sources=sum(probe.n_sources for probe in probes),
            clamped_mass_total=sum(probe.clamped_mass_total for probe in probes),
            term_lengths=tuple(
                sum(probe.term_lengths[position] for probe in probes)
                for position in range(n_terms)
            ),
            term_collection_frequencies=tuple(
                sum(probe.term_collection_frequencies[position] for probe in probes)
                for position in range(n_terms)
            ),
            fill_ids=tuple(fill[:k]),
        )

    def select_candidates(
        self,
        selector: SourceSelector,
        terms: Sequence[str],
        k: int,
        stats: CorpusStats,
    ) -> list[tuple[str, float]]:
        """Descend this subtree under the *caller's* global statistics."""
        return self._descend(
            selector, terms, k, stats, self._probe_children(terms, k)
        )
