"""The wide-event query log: ring buffer, NDJSON, metasearcher wiring."""

import json

import pytest

from repro import Metasearcher, SQuery, parse_expression, quick_federation
from repro.federation import AsyncExecutor, SerialExecutor
from repro.observability import (
    QueryLog,
    QueryLogRecord,
    get_query_log,
    set_query_log,
)


def _record(outcome="wire", total_ms=1.0, **overrides):
    return QueryLogRecord(
        terms="databases", outcome=outcome, total_ms=total_ms, **overrides
    )


@pytest.fixture
def fresh_query_log():
    previous = get_query_log()
    log = set_query_log(QueryLog(slow_ms=10_000.0))
    yield log
    set_query_log(previous)


class TestRingBuffer:
    def test_capacity_drops_oldest(self):
        log = QueryLog(capacity=2)
        for index in range(3):
            log.record(_record(total_ms=float(index)))
        kept = [record.total_ms for record in log.records()]
        assert kept == [1.0, 2.0]
        assert log.total_recorded == 3
        assert len(log) == 2

    def test_capacity_must_be_positive(self):
        with pytest.raises(ValueError):
            QueryLog(capacity=0)

    def test_outcome_filter(self):
        log = QueryLog()
        log.record(_record("wire"))
        log.record(_record("hit"))
        log.record(_record("wire"))
        assert len(log.records("wire")) == 2
        assert len(log.records("hit")) == 1
        assert log.records("error") == []

    def test_disabled_log_drops_records(self):
        log = QueryLog.disabled()
        log.record(_record())
        assert len(log) == 0
        assert log.total_recorded == 0

    def test_record_stamps_wall_clock(self):
        log = QueryLog()
        log.record(_record())
        assert log.records()[0].unix_ms > 0

    def test_explicit_timestamp_is_kept(self):
        log = QueryLog()
        log.record(_record(unix_ms=123.0))
        assert log.records()[0].unix_ms == 123.0


class TestSlowQueries:
    def test_counted_at_threshold(self):
        log = QueryLog(slow_ms=5.0)
        log.record(_record(total_ms=2.0))
        log.record(_record(total_ms=9.0))
        log.record(_record(total_ms=5.0))
        assert log.total_slow == 2

    def test_no_threshold_means_no_slow_queries(self):
        log = QueryLog()
        log.record(_record(total_ms=1e9))
        assert log.total_slow == 0


class TestNdjson:
    def test_one_sorted_json_object_per_line(self, tmp_path):
        log = QueryLog()
        log.record(_record("wire", 1.25, trace_id="abc"))
        log.record(_record("hit", 0.5))
        assert log.write_ndjson(str(tmp_path / "queries.ndjson")) == 2
        lines = (tmp_path / "queries.ndjson").read_text().strip().split("\n")
        assert len(lines) == 2
        first = json.loads(lines[0])
        assert first["kind"] == "query"
        assert first["outcome"] == "wire"
        assert first["trace_id"] == "abc"
        assert first["total_ms"] == 1.25

    def test_empty_log_renders_empty(self, tmp_path):
        assert QueryLog().write_ndjson(str(tmp_path / "queries.ndjson")) == 0
        assert (tmp_path / "queries.ndjson").read_text() == ""

    def test_write_ndjson_round_trips(self, tmp_path):
        log = QueryLog()
        log.record(_record())
        path = tmp_path / "queries.ndjson"
        assert log.write_ndjson(str(path)) == 1
        row = json.loads(path.read_text().strip())
        assert row["terms"] == "databases"


class TestMetasearcherWiring:
    def _searcher(self):
        internet, resource_url = quick_federation(seed=5, docs_per_source=15)
        searcher = Metasearcher(internet, [resource_url])
        searcher.refresh()
        return searcher

    def _query(self, text="databases"):
        return SQuery(
            ranking_expression=parse_expression(f'(body-of-text "{text}")'),
            max_number_documents=5,
        )

    def test_search_logs_one_wire_record(self, fresh_query_log):
        searcher = self._searcher()
        result = searcher.search(self._query(), k_sources=2)
        records = fresh_query_log.records()
        assert [record.outcome for record in records] == ["wire"]
        record = records[0]
        assert record.trace_id == result.trace.trace_id
        assert record.selected_sources
        assert record.total_ms > 0
        assert record.requests >= len(record.selected_sources)
        assert "query" in record.phase_ms

    @pytest.mark.parametrize("drive", ["search", "drained stream"])
    def test_phase_ms_folds_each_phase_span_once(self, fresh_query_log, drive):
        """The per-source ``query:<id>`` spans sit inside the ``query``
        phase span; folding them in as well counted the round twice."""
        searcher = self._searcher()
        if drive == "search":
            result = searcher.search(self._query(), k_sources=3)
        else:
            *_, final = searcher.search_stream(
                self._query("medicine"), k_sources=3, early_stop=False
            )
            result = final.result
        (record,) = fresh_query_log.records()
        assert record.phase_ms["query"] == result.trace.find("query").duration_ms
        assert {"select", "translate", "query"} <= set(record.phase_ms)
        assert sum(record.phase_ms.values()) <= record.total_ms

    def test_cache_hit_logs_hit_outcome(self, fresh_query_log):
        searcher = self._searcher()
        searcher.search(self._query(), k_sources=2)
        searcher.search(self._query(), k_sources=2)
        outcomes = [record.outcome for record in fresh_query_log.records()]
        assert outcomes == ["wire", "hit"]
        hit = fresh_query_log.records("hit")[0]
        assert hit.cache_hits >= 1

    def test_stream_logs_stream_outcome(self, fresh_query_log):
        searcher = self._searcher()
        list(searcher.search_stream(self._query("medicine"), k_sources=2))
        outcomes = [record.outcome for record in fresh_query_log.records()]
        assert outcomes[-1] == "stream"

    @pytest.mark.parametrize("executor", [SerialExecutor, AsyncExecutor])
    def test_abandoned_stream_is_counted_and_logged_once(
        self, fresh_query_log, executor
    ):
        searcher = self._searcher()
        stream = searcher.search_stream(
            self._query("medicine"), k_sources=3, early_stop=False, executor=executor()
        )
        first = next(stream)
        assert not first.is_final
        stream.close()

        (record,) = fresh_query_log.records()
        assert record.outcome == "abandoned"
        assert record.terminated_early
        assert len(record.selected_sources) == 3
        # Only what had answered by then is on record — and paid for.
        assert record.sources_ok == (1 if first.outcome.ok else 0)
        assert record.requests >= 1
        assert record.n_results == len(first.documents)
        assert "query" in record.phase_ms
        assert record.total_ms >= sum(record.phase_ms.values()) > 0

    def test_drained_stream_is_still_recorded_exactly_once(self, fresh_query_log):
        searcher = self._searcher()
        stream = searcher.search_stream(self._query("medicine"), k_sources=3)
        emissions = list(stream)
        stream.close()  # closing a finished stream records nothing more
        assert emissions[-1].is_final
        assert [r.outcome for r in fresh_query_log.records()] == ["stream"]

    def test_closing_at_the_final_emission_is_not_an_abandonment(
        self, fresh_query_log
    ):
        searcher = self._searcher()
        stream = searcher.search_stream(self._query("medicine"), k_sources=2)
        for emission in stream:
            if emission.is_final:
                stream.close()
        assert [r.outcome for r in fresh_query_log.records()] == ["stream"]

    def test_disabled_log_keeps_search_silent(self, fresh_query_log):
        set_query_log(QueryLog.disabled())
        searcher = self._searcher()
        searcher.search(self._query(), k_sources=2)
        assert len(get_query_log()) == 0
