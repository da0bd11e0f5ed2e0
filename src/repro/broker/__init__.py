"""Tiered broker subsystem: the metasearcher sharded root-over-leaves.

The GlOSS reference of the paper ([8], "broker hierarchies") and
ZBroker's query routing both route a query across brokers that each
know a part of the federation.  This package is what a deployment of
separately running leaf brokers would be built from — the partitioner,
the leaf protocol and the exact root:

* :class:`ConsistentHashRing` — which leaf owns which source.
* :class:`LeafBroker` — one :class:`~repro.metasearch.SummaryIndex`
  shard fed by the discovery delta stream.
* :class:`RootBroker` — probes the leaves' exact aggregate statistics,
  prunes shards no query term touches, descends into the rest over the
  :class:`~repro.federation.Executor` protocol, and merges the
  per-shard fragments into the **bit-exact** flat top-k.  Roots nest.
* :class:`BrokeredMetasearcher` — the one-line swap preserving the
  whole ``Metasearcher`` search/search_stream surface, answering from
  the flat index whenever a leaf cannot be consulted.

The flat single-broker index remains the oracle: for every
distributable selector, hierarchical selection is bit-identical to
``selector.select(terms, flat_index, k)``.  In one process it is also
the faster of the two at every size measured (docs/architecture.md),
which is why the tree has no replication, failover, admission or
lossy-routing machinery of its own.
"""

from repro.broker.facade import BrokeredMetasearcher, build_hierarchy
from repro.broker.leaf import CorpusStats, GlobalStatsView, LeafBroker, LeafProbe
from repro.broker.partition import ConsistentHashRing
from repro.broker.root import LeafHandle, RootBroker

__all__ = [
    "BrokeredMetasearcher",
    "ConsistentHashRing",
    "CorpusStats",
    "GlobalStatsView",
    "LeafBroker",
    "LeafHandle",
    "LeafProbe",
    "RootBroker",
    "build_hierarchy",
]
