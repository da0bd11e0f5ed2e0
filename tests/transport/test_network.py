"""The simulated internet: routing, latency, cost accounting."""

import pytest

from repro.transport.network import HostProfile, SimulatedInternet, TransportError


class TestRouting:
    def test_get_and_post_dispatch(self):
        net = SimulatedInternet()
        net.register_get("http://h.org/blob", lambda: b"data")
        net.register_post("http://h.org/query", lambda body: body.upper())
        assert net.perform("http://h.org/blob")[0] == b"data"
        assert net.perform("http://h.org/query", "POST", b"abc")[0] == b"ABC"

    def test_unknown_url_raises(self):
        net = SimulatedInternet()
        with pytest.raises(TransportError):
            net.perform("http://nowhere.org/x")
        with pytest.raises(TransportError):
            net.perform("http://nowhere.org/x", "POST", b"")

    def test_get_post_namespaces_are_separate(self):
        net = SimulatedInternet()
        net.register_get("http://h.org/x", lambda: b"")
        with pytest.raises(TransportError):
            net.perform("http://h.org/x", "POST", b"")


class TestAccounting:
    def test_every_request_logged(self):
        net = SimulatedInternet()
        net.register_get("http://h.org/x", lambda: b"")
        net.perform("http://h.org/x")
        net.perform("http://h.org/x")
        assert net.request_count() == 2
        assert net.request_count("h.org") == 2
        assert net.request_count("other.org") == 0

    def test_latency_respects_profile(self):
        net = SimulatedInternet()
        net.register_host("slow.org", HostProfile(latency_ms=500.0, jitter_ms=0.0))
        net.register_get("http://slow.org/x", lambda: b"")
        net.perform("http://slow.org/x")
        assert net.total_latency_ms() == pytest.approx(500.0)

    def test_first_registration_wins(self):
        net = SimulatedInternet()
        net.register_host("h.org", HostProfile(latency_ms=100.0, jitter_ms=0.0))
        net.register_host("h.org", HostProfile(latency_ms=999.0, jitter_ms=0.0))
        net.register_get("http://h.org/x", lambda: b"")
        net.perform("http://h.org/x")
        assert net.total_latency_ms() == pytest.approx(100.0)

    def test_cost_accumulates(self):
        net = SimulatedInternet()
        net.register_host("pay.org", HostProfile(cost_per_query=2.5))
        net.register_get("http://pay.org/x", lambda: b"")
        net.perform("http://pay.org/x")
        net.perform("http://pay.org/x")
        assert net.total_cost() == pytest.approx(5.0)

    def test_latency_deterministic_per_seed(self):
        def run(seed):
            net = SimulatedInternet(seed=seed)
            net.register_get("http://h.org/x", lambda: b"")
            net.perform("http://h.org/x")
            return net.total_latency_ms()

        assert run(1) == run(1)
        assert run(1) != run(2)

    def test_reset_log(self):
        net = SimulatedInternet()
        net.register_get("http://h.org/x", lambda: b"")
        net.perform("http://h.org/x")
        net.reset_log()
        assert net.request_count() == 0
        assert net.total_cost() == 0.0
