"""The query log equals the round, on every exit path.

A search's record counts what the round recorded, once: its six wire
totals (requests, retries, hedges, timeouts, failures, cost) are sums
over the attempts of the outcomes *this* search recorded — 0 on a cache
serve, whose result carries the filling round's outcomes — and
``negative_skips`` is the number of its negative-cached skips.  A
source cancelled by early termination carries the attempts it had
completed: none when it never started, its failed requests when the
stream cut it mid-retry.
"""

from urllib.parse import urlsplit

import pytest
from hypothesis import given, settings, strategies as st

from repro.cache import QueryResultCache
from repro.experiments import FederationSpec, build_federation
from repro.federation import AsyncExecutor, OutcomeStatus, QueryPolicy, SerialExecutor
from repro.metasearch import Metasearcher, RawScoreMerge, SelectAll
from repro.observability import QueryLog, get_query_log, set_query_log
from repro.starts import SQuery, parse_expression
from repro.transport import FaultProfile

RESOURCE_URL = "http://experiments.example.org/resource"

#: The record's JSON keys; the round changes where the values come from,
#: never the shape.
KEYS = {
    "kind", "terms", "outcome", "total_ms", "trace_id", "selected_sources",
    "phase_ms", "n_results", "sources_ok", "sources_failed",
    "sources_skipped", "requests", "retries", "hedges", "timeouts",
    "failures", "cache_hits", "negative_skips", "cost",
    "terminated_early", "error", "unix_ms",
}

EXECUTORS = {"serial": SerialExecutor, "async": lambda: AsyncExecutor(max_concurrency=4)}

RETRY_AND_HEDGE = QueryPolicy(
    timeout_ms=500.0, max_retries=1, backoff_base_ms=10.0, hedge_after_ms=0.0
)


@pytest.fixture
def log():
    previous = get_query_log()
    yield set_query_log(QueryLog())
    set_query_log(previous)


def searcher_for(policy=QueryPolicy(timeout_ms=500.0), seed=7, flaky=None, dead=None):
    """A six-source federation; the ``flaky`` (fails its first request)
    and ``dead`` sources' hosts fail after discovery, so the query round
    meets them."""
    federation = build_federation(
        FederationSpec(n_sources=6, docs_per_source=12, n_queries=2, seed=seed)
    )
    internet = federation.internet
    searcher = Metasearcher(internet, [RESOURCE_URL], query_policy=policy)
    known = searcher.refresh()
    for index, faults in ((flaky, FaultProfile.flaky(1)), (dead, FaultProfile.dead())):
        if index is not None:
            host = urlsplit(known[index].query_url).netloc
            internet.set_fault_profile(host, faults)
    return internet, searcher


def query(word: str = "database") -> SQuery:
    return SQuery(
        ranking_expression=parse_expression(f'list((body-of-text "{word}"))'),
        max_number_documents=20,
    )


def wire_totals(outcomes) -> dict:
    """What the record must say, from the outcomes alone."""
    outcomes = list(outcomes)
    attempts = [attempt for outcome in outcomes for attempt in outcome.attempts]
    return {
        "requests": sum(outcome.requests for outcome in outcomes),
        "retries": sum(outcome.retries for outcome in outcomes),
        "hedges": sum(attempt.hedged for attempt in attempts),
        "timeouts": sum(a.status is OutcomeStatus.TIMEOUT for a in attempts),
        "failures": sum(a.status is OutcomeStatus.ERROR for a in attempts),
        "cost": round(sum(outcome.cost for outcome in outcomes), 4),
    }


def negative_skips(outcomes) -> int:
    return sum(
        outcome.status is OutcomeStatus.SKIPPED
        and outcome.skip_reason.startswith("negative-cached")
        for outcome in outcomes
    )


def last_record(log) -> dict:
    row = log.records()[-1].to_json()
    assert set(row) == KEYS
    return row


def assert_equals_round(row: dict, outcomes) -> None:
    outcomes = list(outcomes)
    assert {name: row[name] for name in wire_totals(())} == wire_totals(outcomes)
    assert row["negative_skips"] == negative_skips(outcomes)


class TestEveryExitPath:
    def test_wire_with_retries_and_hedges(self, log):
        internet, searcher = searcher_for(RETRY_AND_HEDGE, flaky=1, dead=4)
        before = internet.request_count()
        result = searcher.search(query(), k_sources=6, selector=SelectAll())
        row = last_record(log)
        assert row["outcome"] == "wire"
        assert_equals_round(row, result.outcomes.values())
        assert row["retries"] and row["hedges"] and row["failures"]
        # Every request the record counts went on the wire, and no other.
        assert row["requests"] == internet.request_count() - before

    @pytest.mark.parametrize("executor", sorted(EXECUTORS))
    def test_stream(self, log, executor):
        _, searcher = searcher_for(RETRY_AND_HEDGE, flaky=1)
        *_, final = searcher.search_stream(
            query(), k_sources=6, selector=SelectAll(),
            executor=EXECUTORS[executor](), early_stop=False,
        )
        row = last_record(log)
        assert row["outcome"] == "stream"
        assert_equals_round(row, final.result.outcomes.values())
        assert row["requests"] > 0

    def test_a_hit_counts_no_wire_and_an_expired_entry_its_own(self, log):
        internet, searcher = searcher_for()
        clock = {"now": 0.0}
        searcher.result_cache = QueryResultCache(
            ttl_ms=100.0, clock=lambda: clock["now"]
        )
        filled = searcher.search(query(), k_sources=3)
        assert wire_totals(filled.outcomes.values())["requests"] == 3

        hit = searcher.search(query(), k_sources=3)
        row = last_record(log)
        assert (row["outcome"], row["cache_hits"]) == ("hit", 1)
        assert_equals_round(row, ())  # the filling round's outcomes are not ours
        assert hit.outcomes == filled.outcomes

        clock["now"] = 500.0  # past the TTL: a miss, back on the wire
        before = internet.request_count()
        again = searcher.search(query(), k_sources=3)
        row = last_record(log)
        assert (row["outcome"], row["cache_hits"]) == ("wire", 0)
        assert_equals_round(row, again.outcomes.values())
        assert internet.request_count() - before == row["requests"] == 3

    @pytest.mark.parametrize("executor", sorted(EXECUTORS))
    def test_abandoned_counts_what_landed(self, log, executor):
        _, searcher = searcher_for()
        stream = searcher.search_stream(
            query(), k_sources=6, selector=SelectAll(),
            executor=EXECUTORS[executor](), early_stop=False,
        )
        first = next(stream)
        stream.close()
        row = last_record(log)
        assert row["outcome"] == "abandoned"
        assert_equals_round(row, [first.outcome])

    def test_error_counts_what_landed(self, log):
        class Exploding(RawScoreMerge):
            def merge(self, results, context=None):
                raise RuntimeError("merge failed")

        internet, searcher = searcher_for(RETRY_AND_HEDGE, flaky=1)
        before = internet.request_count()
        with pytest.raises(RuntimeError):
            searcher.search(query(), k_sources=6, selector=SelectAll(), merger=Exploding())
        row = last_record(log)
        assert row["outcome"] == "error" and "merge failed" in row["error"]
        # Every outcome landed before the merge raised: all of it is counted.
        assert row["requests"] == internet.request_count() - before > 0
        assert row["hedges"] > 0

    def test_early_terminated_stream(self, log):
        _, searcher = searcher_for()
        *_, final = searcher.search_stream(
            query(), k_sources=6, selector=SelectAll(),
            executor=SerialExecutor(), deadline_ms=0.0,
        )
        assert final.terminated_early
        cancelled = [
            outcome for outcome in final.result.outcomes.values()
            if outcome.status is OutcomeStatus.CANCELLED
        ]
        assert cancelled and not any(outcome.attempts for outcome in cancelled)
        row = last_record(log)
        assert row["outcome"] == "stream" and row["terminated_early"]
        assert_equals_round(row, final.result.outcomes.values())

    def test_a_source_cancelled_mid_retry_keeps_its_attempts(self, log):
        """Realtime hosts under the async executor: the flaky source fails
        its first request and is still backing off when the deadline cuts
        the stream.  Its cancelled outcome carries the failed request,
        the record counts it, and ``explain()`` shows it."""
        policy = QueryPolicy(timeout_ms=500.0, max_retries=1, backoff_base_ms=2_000.0)
        internet, searcher = searcher_for(policy, flaky=1)
        internet.realtime = True
        before = internet.request_count()
        try:
            *_, final = searcher.search_stream(
                query(), k_sources=6, selector=SelectAll(),
                executor=AsyncExecutor(max_concurrency=8),
                deadline_ms=150.0, early_stop=False,
            )
        finally:
            internet.realtime = False
        assert final.terminated_early
        outcomes = final.result.outcomes.values()
        (mid_retry,) = [
            outcome for outcome in outcomes
            if outcome.status is OutcomeStatus.CANCELLED and outcome.attempts
        ]
        (failed,) = mid_retry.attempts
        assert failed.status is OutcomeStatus.ERROR and "flaky" in failed.error
        assert mid_retry.cost == failed.cost
        row = last_record(log)
        assert row["outcome"] == "stream" and row["terminated_early"]
        assert_equals_round(row, outcomes)
        assert row["failures"] == 1
        # Every request that went on the wire is on record, and no other.
        assert row["requests"] == internet.request_count() - before
        assert f"{mid_retry.source_id}: cancelled after 1 request(s)" in (
            final.result.explain()
        )

    def test_negative_skip(self, log):
        _, searcher = searcher_for(dead=4)
        failed = searcher.search(query("database"), k_sources=6, selector=SelectAll())
        assert failed.failed_sources()
        skipped = searcher.search(query("network"), k_sources=6, selector=SelectAll())
        row = last_record(log)
        assert row["negative_skips"] == 1 == len(skipped.skipped_sources())
        assert_equals_round(row, skipped.outcomes.values())


class TestRecordEqualsRound:
    """Any policy, fault and exit path: the record is the round's sums."""

    @settings(max_examples=12, deadline=None)
    @given(
        seed=st.integers(0, 40),
        executor=st.sampled_from(sorted(EXECUTORS)),
        fault=st.sampled_from(["none", "flaky", "dead", "both"]),
        max_retries=st.integers(0, 2),
        hedge=st.sampled_from([None, 0.0, 50.0]),
        path=st.sampled_from(["batch", "stream", "early-stop stream"]),
    )
    def test_the_record_is_the_sum_of_the_outcomes(
        self, seed, executor, fault, max_retries, hedge, path
    ):
        policy = QueryPolicy(
            timeout_ms=500.0,
            max_retries=max_retries,
            backoff_base_ms=10.0,
            hedge_after_ms=hedge,
        )
        faults = {
            "none": {}, "flaky": {"flaky": 1}, "dead": {"dead": 3},
            "both": {"flaky": 1, "dead": 3},
        }[fault]
        _, searcher = searcher_for(policy, seed=seed, **faults)
        previous = get_query_log()
        set_query_log(QueryLog())
        try:
            for word in ("database", "network"):  # the second may skip
                options = dict(
                    k_sources=6, selector=SelectAll(), executor=EXECUTORS[executor]()
                )
                if path == "batch":
                    result = searcher.search(query(word), **options)
                else:
                    *_, final = searcher.search_stream(
                        query(word),
                        deadline_ms=0.0 if path == "early-stop stream" else None,
                        early_stop=False,
                        **options,
                    )
                    result = final.result
                row = last_record(get_query_log())
                assert_equals_round(row, result.outcomes.values())
        finally:
            set_query_log(previous)
