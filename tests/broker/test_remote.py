"""Network leaves: the hierarchy spanning the simulated internet."""

import json

import pytest

from repro.broker import (
    LeafBroker,
    NetworkLeafHandle,
    RootBroker,
    publish_broker_leaf,
    selector_wire_name,
)
from repro.metasearch.selection import Cori, CostAware, VGlossSum
from repro.starts.errors import ProtocolError
from repro.transport import FaultProfile, SimulatedInternet, TransportError

from tests.broker.util import demo_population, flat_index


def _network_root(population, n_leaves=3):
    internet = SimulatedInternet(seed=3)
    local = [LeafBroker(f"net-{index}") for index in range(n_leaves)]
    handles = []
    for leaf in local:
        base = f"http://{leaf.leaf_id}.example.org/broker"
        publish_broker_leaf(internet, leaf, base)
        handles.append(NetworkLeafHandle(internet, base, leaf.leaf_id))
    root = RootBroker(handles)
    for source_id in sorted(population):
        root.apply_delta(source_id, population[source_id])
    return root, local, internet


class TestWireExactness:
    def test_select_over_the_wire_matches_flat(self):
        population = demo_population()
        index = flat_index(population)
        root, local, _ = _network_root(population)
        # Deltas crossed the wire as SOIF text: the remote shards hold
        # every source.
        assert sum(len(leaf.index) for leaf in local) == len(population)
        for terms in (["databases"], ["query", "medicine"], []):
            assert root.select(Cori(), terms, 5) == Cori().select(terms, index, 5)

    def test_rank_floats_round_trip_exactly(self):
        population = demo_population()
        index = flat_index(population)
        root, _, _ = _network_root(population)
        terms = ["retrieval", "networks"]
        ranking = root.top_candidates(VGlossSum(), terms, len(index))
        assert ranking == VGlossSum().rank(terms, index)

    def test_forget_crosses_the_wire(self):
        population = demo_population()
        root, local, _ = _network_root(population)
        victim = sorted(population)[0]
        root.apply_delta(victim, None)
        assert all(victim not in leaf.index for leaf in local)
        remaining = {k: v for k, v in population.items() if k != victim}
        index = flat_index(remaining)
        assert root.select(Cori(), ["databases"], 4) == Cori().select(
            ["databases"], index, 4
        )


    def test_stats_endpoint(self):
        population = demo_population()
        root, local, _ = _network_root(population, n_leaves=2)
        handle = root.handles()[0]
        stats = handle.shard_stats()
        assert stats["leaf"] == local[0].leaf_id
        assert stats["sources"] == len(local[0].index)


STATS = {"n_sources": 0, "clamped_mass_total": 0, "collection_frequencies": {}}


def _json(payload) -> bytes:
    return json.dumps(payload).encode("utf-8")


MALFORMED_REQUESTS = [
    ("probe", b"\xff\xfe not json", "not JSON"),
    ("probe", b"[1, 2]", "expected a JSON object"),
    ("probe", b"{}", "missing field 'terms'"),
    ("probe", b'{"terms": 3, "k": "x"}', "ill-typed field 'terms'"),
    ("probe", b'{"terms": ["a", 3], "k": 1}', "ill-typed field 'terms'"),
    ("probe", b'{"terms": ["a"], "k": "x"}', "ill-typed field 'k'"),
    ("select", b'{"terms": [], "k": 1}', "missing field 'selector'"),
    (
        "select",
        _json({"selector": "cori", "terms": [], "k": 1}),
        "missing field 'stats'",
    ),
    (
        "select",
        _json(
            {
                "selector": "cori",
                "terms": [],
                "k": 1,
                "stats": STATS | {"collection_frequencies": {"a": "many"}},
            }
        ),
        "ill-typed field 'collection_frequencies'",
    ),
    ("delta", b'{"summary": null}', "missing field 'source'"),
    ("delta", b'{"source": "S0", "summary": 7}', "ill-typed field 'summary'"),
    ("delta", b'{"source": "S0", "summary": "no soif"}', "field 'summary'"),
]

PROBE_REPLY = {
    "leaf_id": "net-1",
    "n_sources": 3,
    "clamped_mass_total": 9,
    "term_lengths": [1],
    "term_collection_frequencies": [1],
    "fill_ids": ["S0"],
}

MALFORMED_REPLIES = [
    ("probe", b"<html>502</html>", "not JSON"),
    ("probe", b'{"leaf": "leaf-00"}', "missing field"),
    ("probe", _json(PROBE_REPLY | {"n_sources": "3"}), "'n_sources'"),
    ("probe", _json(PROBE_REPLY | {"fill_ids": [1]}), "'fill_ids'"),
    (
        "probe",
        _json(PROBE_REPLY | {"term_lengths": [1, 2, 3]}),
        "'term_lengths' is not one per term",
    ),
    ("select", b"null", "expected a JSON object"),
    ("select", b'{"candidates": "S0"}', "ill-typed field 'candidates'"),
    ("select", b'{"candidates": [["S0"]]}', "ill-typed field 'candidates'"),
    ("select", b'{"candidates": [["S0", "high"]]}', "ill-typed field 'candidates'"),
]


class TestTypedWire:
    """Whatever arrives, on either side: ``ProtocolError`` naming the
    endpoint and the field, never a stray exception."""

    @pytest.mark.parametrize("endpoint, body, complaint", MALFORMED_REQUESTS)
    def test_malformed_request(self, endpoint, body, complaint):
        internet = SimulatedInternet(seed=1)
        base = "http://net-0.example.org/broker"
        publish_broker_leaf(internet, LeafBroker("net-0"), base)
        with pytest.raises(ProtocolError, match=complaint) as raised:
            internet.perform(f"{base}/{endpoint}", "POST", body)
        assert f"{base}/{endpoint}" in str(raised.value)

    @pytest.mark.parametrize("endpoint, reply, complaint", MALFORMED_REPLIES)
    def test_malformed_reply(self, endpoint, reply, complaint):
        root, _, internet = _network_root(demo_population())
        url = f"http://net-1.example.org/broker/{endpoint}"
        internet.register_post(url, lambda body: reply)
        with pytest.raises(ProtocolError, match=complaint) as raised:
            root.select(Cori(), ["databases"], 4)
        assert url in str(raised.value)

    def test_a_reply_is_filed_under_the_id_the_root_knows_the_leaf_by(self):
        # The id in a reply is outside input too: a leaf answering under
        # another name must not send the root looking for a stranger.
        internet = SimulatedInternet(seed=1)
        base = "http://net-0.example.org/broker"
        publish_broker_leaf(internet, LeafBroker("its-own-name"), base)
        root = RootBroker([NetworkLeafHandle(internet, base, "alias")])
        population = demo_population()
        for source_id in sorted(population):
            root.apply_delta(source_id, population[source_id])
        assert root.select(Cori(), ["databases"], 4) == Cori().select(
            ["databases"], flat_index(population), 4
        )

    @pytest.mark.parametrize(
        "faults", [FaultProfile.dead(), FaultProfile.hangs()], ids=["dead", "hangs"]
    )
    def test_unreachable_leaf_surfaces_the_transport_error(self, faults):
        # A bare root does not recover: the typed error is the caller's
        # (BrokeredMetasearcher answers it from the flat index).
        root, _, internet = _network_root(demo_population())
        internet.set_fault_profile("net-2.example.org", faults)
        with pytest.raises(TransportError):
            root.select(Cori(), ["databases"], 4)


class TestWireNames:
    def test_registered_selectors_have_wire_names(self):
        assert selector_wire_name(Cori()) == "cori"
        assert selector_wire_name(VGlossSum()) == "vgloss-sum"

    def test_unregistered_selector_is_rejected(self):
        with pytest.raises(ValueError, match="no wire name"):
            selector_wire_name(CostAware(Cori(), {}))

    def test_subclass_does_not_inherit_the_parent_name(self):
        class TweakedCori(Cori):
            pass

        with pytest.raises(ValueError):
            selector_wire_name(TweakedCori())

    def test_unknown_selector_on_the_wire_is_rejected_server_side(self):
        internet = SimulatedInternet(seed=1)
        base = "http://net-0.example.org/broker"
        publish_broker_leaf(internet, LeafBroker("net-0"), base)
        request = {"selector": "bogus", "terms": [], "k": 1, "stats": STATS}
        with pytest.raises(ProtocolError, match="unknown selector"):
            internet.perform(f"{base}/select", "POST", _json(request))
