"""Leaf brokers as network endpoints on the simulated internet.

A leaf need not live in the root's process: ZBroker-style, each leaf
can be published as a set of HTTP-ish endpoints under a base URL and
consulted over the wire.  :class:`NetworkLeafHandle` implements the
same handle protocol a local :class:`~repro.broker.LeafBroker` does, so
a :class:`~repro.broker.RootBroker` cannot tell the difference — and
the simulated internet's latency/fault profiles apply to broker
traffic just as they do to source traffic.

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

from repro.broker.leaf import CorpusStats, LeafProbe
from repro.metasearch.selection import SELECTOR_REGISTRY, SourceSelector
from repro.starts.errors import ProtocolError
from repro.starts.metadata import SContentSummary
from repro.transport.client import trace_headers
from repro.transport.network import SimulatedInternet

__all__ = ["NetworkLeafHandle", "selector_wire_name"]


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


class NetworkLeafHandle:
    """Consult a published leaf broker over the simulated internet."""

    def __init__(
        self, internet: SimulatedInternet, base_url: str, leaf_id: str
    ) -> None:
        self.internet = internet
        self.base_url = base_url
        self.leaf_id = leaf_id

    def _post(self, endpoint: str, payload: dict) -> tuple[dict, str]:
        """One request; the decoded reply and the name to blame it by."""
        url = f"{self.base_url}/{endpoint}"
        body = json.dumps(payload).encode("utf-8")
        reply = self.internet.post(url, body, headers=trace_headers())
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
        reply = self.internet.fetch(url, headers=trace_headers())
        return decode_wire_object(reply, f"reply from {url}")
