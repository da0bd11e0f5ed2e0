"""Deterministic fault injection and deadlines on the simulated internet."""

import pytest

from repro.transport import (
    FaultProfile,
    HostProfile,
    SimulatedInternet,
    TransportError,
    TransportTimeout,
)

URL = "http://flaky.org/data"


def make_internet(faults=None, seed=5, profile=None):
    internet = SimulatedInternet(seed=seed)
    internet.register_host(
        "flaky.org", profile or HostProfile(jitter_ms=0.0), faults
    )
    internet.register_get(URL, lambda: b"payload")
    return internet


def outcome_stream(internet, n=20):
    """(status, latency) of n fetches, exceptions included."""
    stream = []
    for _ in range(n):
        try:
            internet.perform(URL)
        except TransportError:
            pass
        stream.append((internet.log[-1].status, internet.log[-1].latency_ms))
    return stream


class TestDeterminism:
    def test_same_seed_same_fault_stream(self):
        faults = FaultProfile(failure_rate=0.3, timeout_rate=0.2, hang_ms=100.0)
        first = outcome_stream(make_internet(faults))
        second = outcome_stream(make_internet(faults))
        assert first == second
        statuses = {status for status, _ in first}
        assert "ok" in statuses and statuses - {"ok"}  # faults actually fired

    def test_different_seed_different_stream(self):
        faults = FaultProfile(failure_rate=0.5)
        first = outcome_stream(make_internet(faults, seed=5))
        second = outcome_stream(make_internet(faults, seed=6))
        assert first != second


class TestFaultShapes:
    def test_fail_first_then_recover(self):
        internet = make_internet(FaultProfile.flaky(2))
        for _ in range(2):
            with pytest.raises(TransportError):
                internet.perform(URL)
        assert internet.perform(URL)[0] == b"payload"
        assert [record.status for record in internet.log] == ["error", "error", "ok"]

    def test_timeout_after_good_requests(self):
        internet = make_internet(FaultProfile.hangs(after=1, hang_ms=2_000.0))
        assert internet.perform(URL)[0] == b"payload"
        with pytest.raises(TransportTimeout):
            internet.perform(URL)
        assert internet.log[-1].latency_ms == pytest.approx(2_000.0)

    def test_dead_host_always_errors(self):
        internet = make_internet(FaultProfile.dead())
        for _ in range(3):
            with pytest.raises(TransportError):
                internet.perform(URL)

    def test_timeout_is_a_transport_error(self):
        assert issubclass(TransportTimeout, TransportError)

    def test_set_fault_profile_mid_run_restarts_schedule(self):
        internet = make_internet()
        for _ in range(5):
            internet.perform(URL)  # pre-outage traffic
        internet.set_fault_profile("flaky.org", FaultProfile.flaky(1))
        with pytest.raises(TransportError):
            internet.perform(URL)  # schedule counts from attachment
        assert internet.perform(URL)[0] == b"payload"
        internet.set_fault_profile("flaky.org", None)
        assert internet.perform(URL)[0] == b"payload"


class TestDeadlines:
    def test_deadline_clamps_latency_and_raises(self):
        internet = make_internet(profile=HostProfile(latency_ms=20.0, jitter_ms=0.0))
        with pytest.raises(TransportTimeout) as excinfo:
            internet.perform(URL, deadline_ms=5.0)
        record = excinfo.value.record
        assert record is not None
        assert record.status == "timeout"
        assert record.latency_ms == pytest.approx(5.0)  # paid only the wait
        assert internet.log[-1] is record

    def test_generous_deadline_passes_through(self):
        internet = make_internet(profile=HostProfile(latency_ms=20.0, jitter_ms=0.0))
        payload, record = internet.perform(URL, deadline_ms=100.0)
        assert payload == b"payload"
        assert record.status == "ok"
        assert record.latency_ms == pytest.approx(20.0)

    def test_failed_attempts_carry_cost(self):
        internet = make_internet(
            FaultProfile.dead(),
            profile=HostProfile(latency_ms=20.0, jitter_ms=0.0, cost_per_query=3.0),
        )
        with pytest.raises(TransportError) as excinfo:
            internet.perform(URL)
        assert excinfo.value.record.cost == pytest.approx(3.0)
        assert internet.total_cost() == pytest.approx(3.0)
