"""Leaf brokers as network endpoints: both halves of the leaf wire.

A leaf need not live in the root's process: ZBroker-style, each leaf
can be published (:func:`publish_broker_leaf`) as a set of endpoints
under a base URL — on the simulated internet, whose latency/fault
profiles then apply to broker traffic just as they do to source
traffic, or on a :class:`~repro.transport.StartsHttpServer` socket —
and consulted over the wire.  :class:`NetworkLeafHandle` implements the
same handle protocol a local :class:`~repro.broker.LeafBroker` does, so
a :class:`~repro.broker.RootBroker` cannot tell the difference.

The wire format is JSON (floats round-trip exactly through ``repr``,
so candidate scores merge bit-identically to the in-process path);
summaries ride as SOIF text, the protocol's own exchange format.
Selectors cross the wire *by name*, resolved server-side against
:data:`~repro.metasearch.selection.SELECTOR_REGISTRY` — a leaf scores
with its own selector instance, which is safe precisely because
distributable selectors carry no per-query state.
"""

from __future__ import annotations

import json
from collections.abc import Sequence
from dataclasses import asdict
from typing import TYPE_CHECKING

from repro.broker.leaf import CorpusStats, LeafBroker, LeafProbe
from repro.metasearch.selection import SELECTOR_REGISTRY, SourceSelector
from repro.observability.tracing import TraceCollector
from repro.starts.errors import ProtocolError, SoifSyntaxError
from repro.starts.metadata import SContentSummary
from repro.starts.soif import parse_soif
from repro.transport.client import send
from repro.transport.network import (
    FaultProfile,
    HostProfile,
    SimulatedInternet,
    Transport,
)
from repro.transport.server import publish_endpoints, traced

if TYPE_CHECKING:
    from repro.transport.http import StartsHttpServer

__all__ = [
    "NetworkLeafHandle",
    "publish_broker_leaf",
    "selector_wire_name",
]


def selector_wire_name(selector: SourceSelector) -> str:
    """The registry name a selector crosses the wire as.

    Exact-class lookup: a subclass may score differently, and silently
    substituting its parent server-side would break bit-exactness.
    """
    for name, cls in SELECTOR_REGISTRY.items():
        if type(selector) is cls:
            return name
    raise ValueError(
        f"selector {selector.name!r} has no wire name; register it in "
        "SELECTOR_REGISTRY to consult network leaves with it"
    )


# -- the one decode per side -----------------------------------------------
#
# A request (decoded by the ``publish_broker_leaf`` handlers) or a reply
# (decoded by the handle below) comes from another process: whatever is
# not the expected shape raises ProtocolError naming the endpoint and the
# field here, never a stray KeyError / TypeError further in.


def decode_wire_object(body: bytes, where: str) -> dict:
    """``body`` as a JSON object, or :class:`ProtocolError`."""
    try:
        payload = json.loads(body)
    except ValueError as error:  # undecodable bytes and bad JSON alike
        raise ProtocolError(f"{where}: body is not JSON ({error})") from None
    if not isinstance(payload, dict):
        raise ProtocolError(f"{where}: expected a JSON object")
    return payload


def wire_field(payload: dict, name: str, kind, where: str, of=None):
    """``payload[name]``, checked to be a ``kind`` (holding only ``of``)."""
    value = payload.get(name)
    well_typed = isinstance(value, kind)
    if well_typed and of is not None:
        items = value.values() if isinstance(value, dict) else value
        well_typed = all(isinstance(item, of) for item in items)
    if not well_typed:
        problem = "ill-typed" if name in payload else "missing"
        raise ProtocolError(f"{where}: {problem} field {name!r}")
    return value


def _probe_from_payload(
    payload: dict, leaf_id: str, n_terms: int, where: str
) -> LeafProbe:
    """A probe reply; filed under the id the *root* knows the leaf by."""

    def per_term(name: str) -> tuple[int, ...]:
        values = wire_field(payload, name, list, where, of=int)
        if len(values) != n_terms:
            raise ProtocolError(f"{where}: field {name!r} is not one per term")
        return tuple(values)

    return LeafProbe(
        leaf_id=leaf_id,
        n_sources=wire_field(payload, "n_sources", int, where),
        clamped_mass_total=wire_field(payload, "clamped_mass_total", int, where),
        term_lengths=per_term("term_lengths"),
        term_collection_frequencies=per_term("term_collection_frequencies"),
        fill_ids=tuple(wire_field(payload, "fill_ids", list, where, of=str)),
    )


def publish_broker_leaf(
    mount: "SimulatedInternet | StartsHttpServer",
    leaf: LeafBroker,
    base_url: str,
    profile: HostProfile | None = None,
    faults: FaultProfile | None = None,
    trace_sink: TraceCollector | None = None,
) -> str:
    """Mount a :class:`~repro.broker.LeafBroker` as JSON endpoints:

    * ``POST {base}/probe``    — aggregate shard statistics for terms
    * ``POST {base}/select``   — the shard's exact top-k fragment
    * ``POST {base}/delta``    — one summary delta (SOIF text or null)
    * ``GET  {base}/stats``    — shard stats (sources/terms/generation)

    so a :class:`~repro.broker.RootBroker` holding
    :class:`NetworkLeafHandle`\\ s drives it exactly like an in-process
    leaf — on the simulated internet, latency and fault profiles
    included.  A request body that does not decode to the expected
    fields raises :class:`~repro.starts.errors.ProtocolError` naming the
    endpoint and the field; with ``trace_sink``, requests carrying a
    ``traceparent`` header record a ``leaf:<id>:<endpoint>`` span into
    the sink.  Returns the base URL.
    """

    def _selector(payload: dict, where: str):
        name = wire_field(payload, "selector", str, where)
        factory = SELECTOR_REGISTRY.get(name)
        if factory is None:
            raise ProtocolError(f"{where}: unknown selector on the wire: {name!r}")
        return factory()

    def _stats(payload: dict, where: str) -> CorpusStats:
        stats = wire_field(payload, "stats", dict, where)
        return CorpusStats(
            n_sources=wire_field(stats, "n_sources", int, where),
            clamped_mass_total=wire_field(stats, "clamped_mass_total", int, where),
            collection_frequencies=wire_field(
                stats, "collection_frequencies", dict, where, of=int
            ),
        )

    def _summary(payload: dict, where: str) -> SContentSummary | None:
        """The delta's summary field: SOIF text, or null on forget."""
        if payload.get("summary") is None:
            return None
        text = wire_field(payload, "summary", str, where)
        try:
            return SContentSummary.from_soif(parse_soif(text.encode("utf-8")))
        except SoifSyntaxError as error:
            raise ProtocolError(
                f"{where}: ill-typed field 'summary': {error}"
            ) from None

    def handle_probe(payload: dict, where: str) -> dict:
        probe = leaf.probe(
            wire_field(payload, "terms", list, where, of=str),
            wire_field(payload, "k", int, where),
        )
        return asdict(probe)

    def handle_select(payload: dict, where: str) -> dict:
        candidates = leaf.select_candidates(
            _selector(payload, where),
            wire_field(payload, "terms", list, where, of=str),
            wire_field(payload, "k", int, where),
            _stats(payload, where),
        )
        return {"candidates": candidates}

    def handle_delta(payload: dict, where: str) -> dict:
        leaf.apply_delta(
            wire_field(payload, "source", str, where),
            _summary(payload, where),
        )
        return {"generation": leaf.index.generation}

    def decoded(endpoint: str, handler):
        """The endpoint's one decode and one encode around ``handler``,
        under its server-side span."""
        url = f"{base_url}/{endpoint}"

        def handle(body: bytes) -> bytes:
            reply = handler(decode_wire_object(body, url), url)
            return json.dumps(reply).encode("utf-8")

        return traced(f"leaf:{leaf.leaf_id}:{endpoint}", handle, trace_sink)

    endpoints = {
        ("POST", "probe"): decoded("probe", handle_probe),
        ("POST", "select"): decoded("select", handle_select),
        ("POST", "delta"): decoded("delta", handle_delta),
        ("GET", "stats"): lambda: json.dumps(leaf.shard_stats()).encode("utf-8"),
    }
    publish_endpoints(mount, base_url, endpoints, profile, faults)
    return base_url


class NetworkLeafHandle:
    """Consult a published leaf broker over any transport."""

    def __init__(self, internet: Transport, base_url: str, leaf_id: str) -> None:
        self.internet = internet
        self.base_url = base_url
        self.leaf_id = leaf_id

    def _post(self, endpoint: str, payload: dict) -> tuple[dict, str]:
        """One request; the decoded reply and the name to blame it by."""
        url = f"{self.base_url}/{endpoint}"
        body = json.dumps(payload).encode("utf-8")
        reply, _ = send(self.internet.perform, url, "POST", body)
        where = f"reply from {url}"
        return decode_wire_object(reply, where), where

    def probe(self, terms: Sequence[str], k: int) -> LeafProbe:
        reply, where = self._post("probe", {"terms": list(terms), "k": k})
        return _probe_from_payload(reply, self.leaf_id, len(terms), where)

    def select_candidates(
        self,
        selector: SourceSelector,
        terms: Sequence[str],
        k: int,
        stats: CorpusStats,
    ) -> list[tuple[str, float]]:
        reply, where = self._post(
            "select",
            {
                "selector": selector_wire_name(selector),
                "terms": list(terms),
                "k": k,
                "stats": asdict(stats),
            },
        )
        candidates = wire_field(reply, "candidates", list, where, of=list)
        if not all(
            len(pair) == 2
            and isinstance(pair[0], str)
            and isinstance(pair[1], (int, float))
            for pair in candidates
        ):
            raise ProtocolError(f"{where}: ill-typed field 'candidates'")
        return [(source_id, score) for source_id, score in candidates]

    def apply_delta(self, source_id: str, summary: SContentSummary | None) -> None:
        self._post(
            "delta",
            {
                "source": source_id,
                "summary": (
                    summary.to_soif().dump() if summary is not None else None
                ),
            },
        )

    def shard_stats(self) -> dict:
        url = f"{self.base_url}/stats"
        reply, _ = send(self.internet.perform, url)
        return decode_wire_object(reply, f"reply from {url}")
