"""Spans, counters and rendering for the observability layer."""

import threading

import pytest

from repro.observability import (
    SourceCounters,
    Trace,
    Tracer,
    render_trace,
)


class TestSpans:
    def test_spans_nest_within_one_thread(self):
        tracer = Tracer()
        with tracer.span("outer", kind="root"):
            with tracer.span("inner"):
                tracer.event("tick", n=1)
        trace = tracer.trace()
        assert [span.name for span in trace.walk()] == ["outer", "inner", "tick"]
        outer = trace.find("outer")
        assert outer.attributes == {"kind": "root"}
        assert outer.children[0].name == "inner"
        assert trace.find("tick").duration_ms == 0.0
        assert trace.find("missing") is None

    def test_sibling_spans_stay_siblings(self):
        tracer = Tracer()
        with tracer.span("first"):
            pass
        with tracer.span("second"):
            pass
        assert [span.name for span in tracer.trace().spans] == ["first", "second"]

    def test_duration_measured_after_close(self):
        clock_value = [0.0]
        tracer = Tracer(clock=lambda: clock_value[0])
        with tracer.span("timed") as span:
            clock_value[0] = 0.25
        assert not span.is_open
        assert span.duration_ms == pytest.approx(250.0)

    def test_open_span_reports_elapsed_so_far(self):
        """A crashed round's open spans show accrued time, not 0.0."""
        clock_value = [0.0]
        tracer = Tracer(clock=lambda: clock_value[0])
        with tracer.span("timed") as span:
            assert span.is_open
            assert span.duration_ms == 0.0  # nothing accrued yet
            clock_value[0] = 0.1
            assert span.duration_ms == pytest.approx(100.0)
            clock_value[0] = 0.2
            assert span.duration_ms == pytest.approx(200.0)
        # Closing freezes the duration against further clock movement.
        clock_value[0] = 9.9
        assert span.duration_ms == pytest.approx(200.0)

    def test_hand_built_span_without_clock_reads_zero_while_open(self):
        from repro.observability import Span

        span = Span(name="manual", start_ms=10.0)
        assert span.is_open
        assert span.duration_ms == 0.0
        span.end_ms = 35.0
        assert span.duration_ms == pytest.approx(25.0)

    def test_annotate_merges_attributes(self):
        tracer = Tracer()
        with tracer.span("phase", a=1) as span:
            span.annotate(b=2, a=3)
        assert span.attributes == {"a": 3, "b": 2}

    def test_explicit_parent_crosses_threads(self):
        """Worker threads attach to the dispatcher's span via parent=."""
        tracer = Tracer()
        with tracer.span("query") as query_span:
            def worker(index: int) -> None:
                with tracer.span(f"query:src{index}", parent=query_span):
                    pass

            threads = [
                threading.Thread(target=worker, args=(index,)) for index in range(4)
            ]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join()
        names = {child.name for child in query_span.children}
        assert names == {f"query:src{index}" for index in range(4)}
        # Without parent=, a worker thread's span would become a root.
        assert [span.name for span in tracer.trace().spans] == ["query"]


class TestCounters:
    def test_count_accumulates_per_source(self):
        tracer = Tracer()
        tracer.count("S1", requests=1, latency_ms=20.0)
        tracer.count("S1", requests=2, retries=1, latency_ms=40.0, cost=5.0)
        tracer.count("S2", requests=1)
        s1 = tracer.counters["S1"]
        assert (s1.requests, s1.retries) == (3, 1)
        assert s1.latency_ms == pytest.approx(60.0)
        assert s1.cost == pytest.approx(5.0)
        assert tracer.counters["S2"].requests == 1

    def test_counting_is_thread_safe(self):
        tracer = Tracer()

        def hammer() -> None:
            for _ in range(200):
                tracer.count("S", requests=1)

        threads = [threading.Thread(target=hammer) for _ in range(8)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        assert tracer.counters["S"].requests == 1600

    def test_cache_counters_reject_fractional_integral_deltas(self):
        tracer = Tracer()
        with pytest.raises(ValueError, match="integral"):
            tracer.count_cache(hits=1.5)
        with pytest.raises(ValueError, match="integral"):
            tracer.count_cache(misses=0.25)
        # cost_saved is the one genuinely fractional tally.
        tracer.count_cache(hits=1, cost_saved=2.75)
        tracer.count_cache(cost_saved=0.25)
        assert tracer.cache.hits == 1
        assert tracer.cache.cost_saved == pytest.approx(3.0)

    def test_whole_valued_floats_still_count(self):
        tracer = Tracer()
        tracer.count_cache(hits=2.0, stores=1)
        assert tracer.cache.hits == 2
        assert tracer.cache.stores == 1


class TestThreadFanOut:
    """One tracer under a real pool: the query round's concurrency shape."""

    def test_pool_fan_out_with_barrier_keeps_the_trace_consistent(self):
        from concurrent.futures import ThreadPoolExecutor

        tracer = Tracer()
        workers = 8
        rounds = 25
        barrier = threading.Barrier(workers)

        def worker(index: int, query_span) -> None:
            barrier.wait()  # maximize overlap on the span/counter locks
            for round_number in range(rounds):
                name = f"query:src{index}"
                with tracer.span(name, parent=query_span, round=round_number):
                    with tracer.span(f"{name}:parse"):
                        pass
                tracer.count(f"src{index}", requests=1, latency_ms=1.0)
                tracer.count("shared", requests=1)

        with tracer.span("query") as query_span:
            with ThreadPoolExecutor(max_workers=workers) as pool:
                for future in [
                    pool.submit(worker, index, query_span)
                    for index in range(workers)
                ]:
                    future.result()

        trace = tracer.trace()
        assert [span.name for span in trace.spans] == ["query"]
        assert len(query_span.children) == workers * rounds
        # Every child kept its own nested parse span: no cross-thread
        # interleaving corrupted the per-thread span stacks.
        for child in query_span.children:
            assert [grandchild.name for grandchild in child.children] == [
                f"{child.name}:parse"
            ]
            assert not child.is_open
        assert tracer.counters["shared"].requests == workers * rounds
        for index in range(workers):
            assert tracer.counters[f"src{index}"].requests == rounds

    def test_sibling_threads_without_parent_become_roots(self):
        tracer = Tracer()

        def worker() -> None:
            with tracer.span("orphan"):
                pass

        thread = threading.Thread(target=worker)
        thread.start()
        thread.join()
        assert [span.name for span in tracer.trace().spans] == ["orphan"]


class TestRendering:
    def test_render_trace_shows_tree_and_counters(self):
        tracer = Tracer()
        with tracer.span("search", terms="databases"):
            with tracer.span("query:S1", url="http://s1.org"):
                pass
        tracer.count("S1", requests=2, retries=1, latency_ms=40.0, cost=1.5)
        rendered = render_trace(tracer.trace())
        assert "search" in rendered
        assert "  query:S1" in rendered  # indented child
        assert "terms=databases" in rendered
        assert "per-source counters" in rendered
        assert "S1" in rendered

    def test_render_marks_open_spans(self):
        clock_value = [0.0]
        tracer = Tracer(clock=lambda: clock_value[0])
        with tracer.span("search"):
            with tracer.span("query"):
                clock_value[0] = 0.05
                rendered = render_trace(tracer.trace())
        assert rendered.count("[open]") == 2  # both spans still running
        for line in rendered.splitlines():
            if line.strip().startswith(("search", "query")):
                assert "ms+ [open]" in line
        # A finished trace carries no markers.
        assert "[open]" not in render_trace(tracer.trace())

    def test_render_empty_trace(self):
        assert render_trace(Tracer().trace()) == "(empty trace)"

    def test_render_counters_table_has_header_and_rows(self):
        trace = Trace(counters={"S1": SourceCounters(requests=3, cost=2.0)})
        title, header, row = render_trace(trace).splitlines()
        assert title.startswith("per-source counters")
        assert "reqs" in header and "cost" in header
        assert row.startswith("S1")

    def test_self_time_is_what_no_child_accounts_for(self):
        clock = [0.0]
        tracer = Tracer(clock=lambda: clock[0])
        with tracer.span("search"):
            clock[0] = 0.010
            with tracer.span("query"):
                clock[0] = 0.040
            clock[0] = 0.045
        header, search, query = render_trace(tracer.trace()).splitlines()
        assert header.split() == ["span", "total", "self"]
        assert search.split() == ["search", "45.0ms", "15.0ms"]
        assert query.split() == ["query", "30.0ms", "30.0ms"]

    def test_fragments_render_under_the_span_that_called_them(self):
        tracer = Tracer()
        with tracer.span("search"):
            with tracer.span("query:S1") as client_span:
                pass
        server = Tracer(context=tracer.context_for(client_span))
        with server.span("serve:query:S1"):
            pass
        stranger = Tracer()
        with stranger.span("serve:query:other"):
            pass
        lines = render_trace(
            tracer.trace(), [server.trace(), stranger.trace()]
        ).splitlines()
        assert [line.split()[0] for line in lines[1:]] == [
            "search", "query:S1", "serve:query:S1",
        ]
        assert lines[3].startswith("    serve:query:S1")
