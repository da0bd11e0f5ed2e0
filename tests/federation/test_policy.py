"""Query policies: backoff schedules, retries, deadlines, hedging."""

import time

import pytest

from repro.corpus import source1_documents
from repro.federation import (
    AsyncExecutor,
    OutcomeStatus,
    QueryDispatcher,
    QueryPolicy,
    SerialExecutor,
    SourceRequest,
)
from repro.source import StartsSource
from repro.starts import SQuery, parse_expression
from repro.transport import (
    FaultProfile,
    HostProfile,
    SimulatedInternet,
    publish_source,
)
from repro.transport.client import StartsClient


def ranking_query() -> SQuery:
    return SQuery(
        ranking_expression=parse_expression('list((body-of-text "databases"))')
    )


class TestBackoffSchedule:
    def test_exponential_with_cap(self):
        policy = QueryPolicy(
            max_retries=3, backoff_base_ms=10.0, backoff_multiplier=2.0,
            backoff_max_ms=25.0,
        )
        assert policy.backoff_before(1) == 0.0
        assert policy.backoff_before(2) == 10.0
        assert policy.backoff_before(3) == 20.0
        assert policy.backoff_before(4) == 25.0  # 40 capped

    def test_max_attempts(self):
        assert QueryPolicy().max_attempts == 1
        assert QueryPolicy(max_retries=2).max_attempts == 3

    def test_should_retry_respects_kind_switches(self):
        policy = QueryPolicy(max_retries=2, retry_on_timeout=False)
        assert policy.should_retry("error", 1)
        assert not policy.should_retry("timeout", 1)
        assert not policy.should_retry("error", 3)  # attempts exhausted

    def test_validation(self):
        with pytest.raises(ValueError):
            QueryPolicy(max_retries=-1)
        with pytest.raises(ValueError):
            QueryPolicy(backoff_base_ms=-1.0)
        with pytest.raises(ValueError):
            QueryPolicy(backoff_multiplier=0.5)


FAST = HostProfile(latency_ms=20.0, jitter_ms=0.0)
SLOW_AND_CHARGING = HostProfile(latency_ms=100.0, jitter_ms=0.0, cost_per_query=2.0)

#: case id -> (host profile, fault profile, default policy, per-source
#: policies[, what the source answers in place of a result stream]).
#: One table feeds both the absolute expectations below (through the
#: blocking ``run_one`` driver) and the executor-equivalence matrix.
CASES = {
    "ok": (FAST, None, QueryPolicy(), None),
    "retry_then_ok": (
        FAST,
        FaultProfile.flaky(2),
        QueryPolicy(max_retries=2, backoff_base_ms=10.0),
        None,
    ),
    "retries_exhausted": (
        FAST,
        FaultProfile.dead(),
        QueryPolicy(max_retries=1, backoff_base_ms=10.0),
        None,
    ),
    "timeout": (
        FAST,
        FaultProfile.hangs(hang_ms=10_000.0),
        QueryPolicy(timeout_ms=500.0, max_retries=1, backoff_base_ms=10.0),
        None,
    ),
    "timeout_not_retried": (
        FAST,
        FaultProfile.hangs(),
        QueryPolicy(timeout_ms=500.0, max_retries=3, retry_on_timeout=False),
        None,
    ),
    "hedge_loses": (SLOW_AND_CHARGING, None, QueryPolicy(hedge_after_ms=50.0), None),
    "hedge_wins": (FAST, FaultProfile.flaky(1), QueryPolicy(hedge_after_ms=10.0), None),
    "hedge_both_fail": (
        FAST,
        FaultProfile.dead(),
        QueryPolicy(hedge_after_ms=10.0),
        None,
    ),
    "hedge_skipped": (FAST, None, QueryPolicy(hedge_after_ms=50.0), None),
    "per_source_override": (
        FAST,
        FaultProfile.flaky(1),
        QueryPolicy(),  # default: no retries
        {"S1": QueryPolicy(max_retries=1, backoff_base_ms=5.0)},
    ),
    "garbled_response": (
        SLOW_AND_CHARGING,
        None,
        QueryPolicy(max_retries=1, backoff_base_ms=10.0),
        None,
        b"\xff\xfe garbage",
    ),
}

EXECUTORS = {
    "serial": SerialExecutor,
    "async": lambda: AsyncExecutor(max_concurrency=4),
}


def dispatcher_for(case, executor=None, n_sources=1, realtime_scale=None):
    """A fresh world for ``case``: ``(dispatcher, requests)``.

    Every source sits on its own host with the case's profile and fault
    schedule, so fault counters never leak between runs or sources.
    """
    profile, faults, policy, policies, *garbled = CASES[case]
    internet = SimulatedInternet(seed=4)
    requests = []
    for number in range(1, n_sources + 1):
        source = StartsSource(
            f"S{number}", source1_documents(), base_url=f"http://s{number}.org/s"
        )
        url = publish_source(internet, source, profile, faults=faults)
        if garbled:
            internet.register_post(url, lambda body: garbled[0])
        requests.append(SourceRequest(f"S{number}", url, ranking_query()))
    if realtime_scale is not None:
        internet.realtime, internet.time_scale = True, realtime_scale
    dispatcher = QueryDispatcher(
        StartsClient(internet), executor=executor, policy=policy, policies=policies
    )
    return dispatcher, requests


def run_one(case):
    dispatcher, (request,) = dispatcher_for(case)
    return dispatcher, dispatcher.run_one(request)


class TestDispatcherPolicies:
    def test_flaky_source_recovers_under_retries(self):
        dispatcher, outcome = run_one("retry_then_ok")
        assert outcome.status is OutcomeStatus.OK
        assert outcome.requests == 3
        assert outcome.retries == 2
        assert outcome.results is not None and outcome.results.documents
        # 20 (fail) + 10 backoff + 20 (fail) + 20 backoff + 20 (ok).
        assert outcome.elapsed_ms == pytest.approx(90.0)
        counters = dispatcher.tracer.counters["S1"]
        assert counters.requests == 3
        assert counters.retries == 2
        assert counters.failures == 2
        assert counters.backoff_ms == pytest.approx(30.0)

    def test_retries_exhausted_reports_error(self):
        _, outcome = run_one("retries_exhausted")
        assert outcome.status is OutcomeStatus.ERROR
        assert outcome.requests == 2
        assert outcome.error and "injected" in outcome.error

    def test_deadline_turns_hang_into_timeout(self):
        dispatcher, outcome = run_one("timeout")
        assert outcome.status is OutcomeStatus.TIMEOUT
        # 500 (timeout) + 10 backoff + 500 (timeout): patience is bounded.
        assert outcome.elapsed_ms == pytest.approx(1010.0)
        assert dispatcher.tracer.counters["S1"].timeouts == 2

    def test_retry_on_timeout_can_be_disabled(self):
        _, outcome = run_one("timeout_not_retried")
        assert outcome.status is OutcomeStatus.TIMEOUT
        assert outcome.requests == 1

    def test_hedge_fires_on_slow_primary_and_both_are_paid(self):
        dispatcher, outcome = run_one("hedge_loses")
        assert outcome.status is OutcomeStatus.OK
        assert outcome.requests == 2
        assert outcome.retries == 0  # a hedge is not a retry
        assert [attempt.hedged for attempt in outcome.attempts] == [False, True]
        # Primary answers at 100 ms, hedge would answer at 50 + 100 = 150;
        # the primary wins, so effective time is the primary's.
        assert outcome.elapsed_ms == pytest.approx(100.0)
        assert outcome.cost == pytest.approx(4.0)  # losing hedge still paid
        assert dispatcher.tracer.counters["S1"].hedges == 1

    def test_hedge_wins_when_the_primary_fails(self):
        _, outcome = run_one("hedge_wins")
        assert outcome.status is OutcomeStatus.OK
        assert [attempt.status for attempt in outcome.attempts] == [
            OutcomeStatus.ERROR,
            OutcomeStatus.OK,
        ]
        # The hedge left at 10 ms and took 20: the answer lands at 30.
        assert outcome.elapsed_ms == pytest.approx(30.0)
        assert outcome.retries == 0

    def test_hedge_that_also_fails_reports_the_slower_failure(self):
        _, outcome = run_one("hedge_both_fail")
        assert outcome.status is OutcomeStatus.ERROR
        assert outcome.requests == 2
        assert outcome.elapsed_ms == pytest.approx(30.0)

    def test_no_hedge_when_primary_is_fast_enough(self):
        dispatcher, outcome = run_one("hedge_skipped")
        assert outcome.requests == 1
        assert dispatcher.tracer.counters["S1"].hedges == 0

    def test_garbled_response_is_an_error_that_was_paid_for(self):
        dispatcher, outcome = run_one("garbled_response")
        assert outcome.status is OutcomeStatus.ERROR
        assert outcome.results is None
        assert "SOIF" in outcome.error
        # The source answered both times (100 + 10 backoff + 100) and
        # charged for both; only the decode failed.
        assert outcome.requests == 2
        assert outcome.elapsed_ms == pytest.approx(210.0)
        assert outcome.cost == pytest.approx(4.0)
        assert dispatcher.tracer.counters["S1"].failures == 2

    def test_per_source_policy_override(self):
        dispatcher, (request,) = dispatcher_for("per_source_override")
        assert dispatcher.policy_for("S1").max_retries == 1
        assert dispatcher.policy_for("Other").max_retries == 0
        outcome = dispatcher.run_one(request)
        assert outcome.status is OutcomeStatus.OK
        assert outcome.retries == 1


def outcome_facts(outcome):
    """Everything a :class:`SourceOutcome` records, documents by value."""
    documents = outcome.results.documents if outcome.results else []
    return (
        outcome.source_id,
        outcome.status,
        outcome.attempts,
        outcome.elapsed_ms,
        outcome.cost,
        outcome.error,
        [(document.linkage, document.raw_score) for document in documents],
    )


def span_tree(tracer):
    """``(name, parent name, what the runner annotated)`` per span, sorted
    — sibling order is completion order, which executors may differ in."""
    rows = []

    def visit(span, parent_name):
        attributes = {
            key: value
            for key, value in span.attributes.items()
            if key != "url"  # the only attribute that is not a policy fact
        }
        rows.append((span.name, parent_name, sorted(attributes.items())))
        for child in span.children:
            visit(child, span.name)

    for root in tracer.spans:
        visit(root, None)
        assert not any(span.is_open for span in root.walk())
    return sorted(rows, key=repr)


class TestOnePolicyCoreThreeDrivers:
    """The blocking driver (``run_one``), the serial executor and the
    event loop run the same policy loop: same outcomes, same spans, same
    counters — batch or streamed."""

    @pytest.mark.parametrize("streamed", [False, True], ids=["batch", "stream"])
    @pytest.mark.parametrize("executor", EXECUTORS)
    @pytest.mark.parametrize("case", CASES)
    def test_outcomes_spans_and_counters_match_run_one(self, case, executor, streamed):
        reference, requests = dispatcher_for(case, n_sources=3)
        expected = [reference.run_one(request) for request in requests]

        dispatcher, requests = dispatcher_for(case, EXECUTORS[executor](), n_sources=3)
        if streamed:
            outcomes = sorted(
                dispatcher.dispatch_stream(requests), key=lambda o: o.source_id
            )
        else:
            outcomes = dispatcher.dispatch(requests)

        assert [outcome_facts(o) for o in outcomes] == [
            outcome_facts(o) for o in expected
        ]
        assert span_tree(dispatcher.tracer) == span_tree(reference.tracer)
        assert dispatcher.tracer.counters == reference.tracer.counters

    @pytest.mark.parametrize("executor", EXECUTORS)
    def test_realtime_backoff_is_really_waited(self, executor):
        """Retries wait their (scaled) backoff under every executor."""
        scale = 0.5
        policy = CASES["retry_then_ok"][2]
        backoff_s = (policy.backoff_before(2) + policy.backoff_before(3)) * scale / 1e3
        reference, requests = dispatcher_for("retry_then_ok")
        expected = reference.run_one(requests[0])

        dispatcher, requests = dispatcher_for(
            "retry_then_ok", EXECUTORS[executor](), realtime_scale=scale
        )
        started = time.perf_counter()
        (outcome,) = dispatcher.dispatch(requests)
        wall_s = time.perf_counter() - started

        latency_s = sum(a.latency_ms for a in outcome.attempts) * scale / 1e3
        # 5% slack: an event loop may fire a timer a clock tick early.
        assert wall_s >= 0.95 * (backoff_s + latency_s)
        assert outcome_facts(outcome) == outcome_facts(expected)


class _NoSlack(QueryPolicy):
    """The default policy with a 2 ms realtime wall guard (normally 5 s+)."""

    def attempt_wall_budget_s(self, time_scale=1.0, hang_cap_ms=60_000.0, slack_s=5.0):
        return 0.002


class TestRealtimeWallGuard:
    """The ``asyncio.timeout()`` backstop: a backend that really keeps the
    client waiting past the wall budget ends ``TIMEOUT``, never raises."""

    @pytest.mark.parametrize("streamed", [False, True], ids=["batch", "stream"])
    def test_expiry_is_a_timeout_outcome(self, streamed):
        dispatcher, requests = dispatcher_for(
            "ok", AsyncExecutor(max_concurrency=4), n_sources=2, realtime_scale=1.0
        )
        dispatcher.policy = _NoSlack(max_retries=1, backoff_base_ms=1.0)
        started = time.perf_counter()
        if streamed:
            outcomes = list(dispatcher.dispatch_stream(requests))
        else:
            outcomes = dispatcher.dispatch(requests)
        # The hosts really sleep 20 ms per request; nobody waited for them.
        assert time.perf_counter() - started < 2.0
        assert sorted(outcome.source_id for outcome in outcomes) == ["S1", "S2"]
        for outcome in outcomes:
            assert outcome.status is OutcomeStatus.TIMEOUT
            assert outcome.error == "wall-clock attempt budget exceeded"
            assert outcome.results is None
            assert outcome.requests == 2  # the retry expired the same way
        assert dispatcher.tracer.counters["S1"].timeouts == 2

    def test_a_generous_guard_never_fires(self):
        dispatcher, requests = dispatcher_for(
            "ok", AsyncExecutor(max_concurrency=4), realtime_scale=0.1
        )
        (outcome,) = dispatcher.dispatch(requests)
        assert outcome.status is OutcomeStatus.OK
