"""The one-line swap: a :class:`Metasearcher` whose selection is tiered.

``BrokeredMetasearcher`` satisfies the whole ``Metasearcher`` surface —
``search``, ``search_stream``, caching, policies — and changes exactly one phase: source selection runs
through a root/leaf broker hierarchy instead of the flat summary
index.  The hierarchy is fed by the discovery delta stream (every
harvest, re-harvest and ``forget`` routed through the consistent-hash
ring to the owning leaf), so it is coherent with the flat index by
construction; and because brokered selection is bit-exact for
distributable selectors, search results are bit-identical to the flat
metasearcher's.

The flat index the hierarchy is fed *from* answers whenever the tree
cannot: a non-distributable selector (random, cost-aware), or a leaf
consultation that fails with ``TransportError`` / ``ProtocolError``.
The picks are the same either way, so in one process the flat index is
the hierarchy's standby, however many leaves are lost and how often.
"""

from __future__ import annotations

from repro.broker.leaf import LeafBroker
from repro.broker.root import RootBroker
from repro.federation.executor import Executor
from repro.metasearch.client import Metasearcher
from repro.observability.metrics import get_registry
from repro.starts.errors import ProtocolError
from repro.transport.network import TransportError

__all__ = ["BrokeredMetasearcher", "build_hierarchy"]


def build_hierarchy(
    n_leaves: int,
    executor: Executor | None = None,
    leaf_prefix: str = "leaf",
    broker_id: str = "root",
) -> RootBroker:
    """A root over ``n_leaves`` fresh in-process leaf brokers.

    Leaf ids are ``{leaf_prefix}-00`` … so the ring's routing table is
    deterministic for a given leaf count.
    """
    if n_leaves < 1:
        raise ValueError("n_leaves must be >= 1")
    leaves = [LeafBroker(f"{leaf_prefix}-{index:02d}") for index in range(n_leaves)]
    return RootBroker(leaves, executor=executor, broker_id=broker_id)


class BrokeredMetasearcher(Metasearcher):
    """A :class:`Metasearcher` selecting through a broker hierarchy.

    Args:
        internet / resource_urls / **kwargs: exactly as
            :class:`Metasearcher`.
        broker: a prebuilt :class:`RootBroker` (nested trees, network
            leaves); mutually exclusive with the ``n_leaves`` shortcut.
        n_leaves: build a fresh local hierarchy this wide (default 4).
        broker_executor: fan-out executor for leaf consultations;
            defaults to the searcher's own executor, so an async
            metasearcher fans out over its leaves the same way it fans
            out over its sources.
    """

    def __init__(
        self,
        internet,
        resource_urls=None,
        broker: RootBroker | None = None,
        n_leaves: int = 4,
        broker_executor: Executor | None = None,
        **kwargs,
    ) -> None:
        super().__init__(internet, resource_urls, **kwargs)
        if broker is not None and broker_executor:
            raise ValueError("pass the executor to the prebuilt broker, not both")
        self.broker = broker or build_hierarchy(
            n_leaves, executor=broker_executor or self.executor
        )
        # Every discovery delta — harvest, re-harvest, forget — routes
        # through the ring to the owning leaf, in the exact order the
        # flat index saw it.
        self.discovery.add_delta_hook(self.broker.apply_delta)

    def _pick_sources(self, tracer, span, selector, terms, k_sources):
        span.annotate(brokered=True)
        if getattr(selector, "distributable", False):
            try:
                return self.broker.select(selector, terms, k_sources, tracer=tracer)
            except (TransportError, ProtocolError) as error:
                span.annotate(broker_fallback=repr(error))
                get_registry().counter(
                    "broker_fallbacks_total",
                    "Brokered selections answered by the flat index after a "
                    "leaf consultation failed.",
                ).inc()
        # Reached when a leaf could not be consulted, and by selectors
        # that cannot be sharded (a global permutation, a cross-source
        # discount): the flat index holds the same sources and, for a
        # distributable selector, selects the same ids.
        return super()._pick_sources(tracer, span, selector, terms, k_sources)
