"""Trace context: the traceparent codec and ambient propagation."""

import re
import threading

from hypothesis import given, strategies as st

from repro.observability import (
    TraceCollector,
    TraceContext,
    Tracer,
    current_trace_context,
    trace_context,
)


class TestTraceparentCodec:
    def test_round_trip_preserves_equality(self):
        context = TraceContext("deadbeefcafef00d", "0123456789abcdef")
        parsed = TraceContext.from_traceparent(context.to_traceparent())
        assert parsed == context

    def test_header_shape_is_w3c(self):
        header = TraceContext("ab" * 8, "cd" * 8).to_traceparent()
        version, trace_id, span_id, flags = header.split("-")
        assert version == "00"
        assert len(trace_id) == 32
        assert len(span_id) == 16
        assert flags == "01"

    def test_sixteen_hex_trace_id_is_zero_padded(self):
        header = TraceContext("deadbeefcafef00d", "cd" * 8).to_traceparent()
        assert header.split("-")[1] == "0" * 16 + "deadbeefcafef00d"

    def test_span_id_leading_zeros_survive_the_round_trip(self):
        # Generated span ids may legitimately start with '0'; stripping
        # them would break the stitching equality with the server side.
        context = TraceContext("ab" * 8, "00abcdef01234567")
        parsed = TraceContext.from_traceparent(context.to_traceparent())
        assert parsed.span_id == "00abcdef01234567"

    def test_unsampled_flag_round_trips(self):
        context = TraceContext("ab" * 8, "cd" * 8, sampled=False)
        parsed = TraceContext.from_traceparent(context.to_traceparent())
        assert parsed is not None
        assert not parsed.sampled

    def test_absent_and_malformed_headers_parse_to_none(self):
        bad = [
            None,
            "",
            "not-a-header",
            "00-short-cdcdcdcdcdcdcdcd-01",
            "00-" + "g" * 32 + "-" + "cd" * 8 + "-01",  # non-hex
            "00-" + "ab" * 16 + "-" + "cd" * 8,  # missing flags
            "00-" + "ab" * 16 + "-" + "cd" * 4 + "-01",  # short span id
        ]
        for header in bad:
            assert TraceContext.from_traceparent(header) is None

    def test_only_lowercase_ascii_hex_of_a_known_version_is_an_id(self):
        """``int(x, 16)`` took all of these: a foreign header's id then rode
        into ``explain``, the NDJSON export and outbound headers."""
        trace, span = "ab" * 16, "cd" * 8
        bad = [
            f"00-+{'a' * 31}-{span}-01",  # signed
            f"00-{trace}--{'c' * 15}-01",
            f"00-{'١' * 32}-{span}-01",  # non-ASCII digits
            f"00-{trace}-{'１' * 16}-01",
            f"00-{'AB' * 16}-{span}-01",  # uppercase
            f"zz-{trace}-{span}-01",  # not a version
            f"ff-{trace}-{span}-01",  # the version W3C reserves as invalid
            f"00-{trace}-{span}-0x1",
            f"00-{trace}-{span}-1",
            f"00-{trace}-{span}- 1",
            f"00-{'0' * 32}-{span}-01",  # all-zero ids
            f"00-{trace}-{'0' * 16}-01",
        ]
        for header in bad:
            assert TraceContext.from_traceparent(header) is None, header
        future = TraceContext.from_traceparent(f"01-{trace}-{span}-03")
        assert future == TraceContext(trace, span, sampled=True)

    @given(
        st.one_of(
            st.text(max_size=60),
            # a well-formed header with a few characters swapped out
            st.tuples(
                st.lists(st.tuples(st.integers(0, 54), st.characters()), max_size=3),
                st.sampled_from(["00", "ff", "0a"]),
            ).map(
                lambda drawn: "".join(
                    dict(drawn[0]).get(index, char)
                    for index, char in enumerate(
                        f"{drawn[1]}-{'0' * 16}{'5e' * 8}-{'7f' * 8}-01"
                    )
                )
            ),
        )
    )
    def test_arbitrary_text_parses_to_none_or_to_a_clean_round_trip(self, header):
        context = TraceContext.from_traceparent(header)  # never raises
        if context is not None:
            assert re.fullmatch(
                "[0-9a-f]{2}-[0-9a-f]{32}-[0-9a-f]{16}-[0-9a-f]{2}", header.strip()
            )
            assert re.fullmatch("[0-9a-f]{16}|[0-9a-f]{32}", context.trace_id)
            assert re.fullmatch("[0-9a-f]{16}", context.span_id)
            assert int(context.trace_id, 16) and int(context.span_id, 16)
            assert TraceContext.from_traceparent(context.to_traceparent()) == context

    def test_child_keeps_trace_and_swaps_span(self):
        context = TraceContext("ab" * 8, "cd" * 8, sampled=False)
        child = context.child("ef" * 8)
        assert child.trace_id == context.trace_id
        assert child.span_id == "ef" * 8
        assert child.sampled is False


class TestAmbientContext:
    def test_no_context_by_default(self):
        assert current_trace_context() is None

    def test_activation_is_scoped(self):
        context = TraceContext("ab" * 8, "cd" * 8)
        with trace_context(context):
            assert current_trace_context() == context
        assert current_trace_context() is None

    def test_none_context_is_a_noop(self):
        outer = TraceContext("ab" * 8, "cd" * 8)
        with trace_context(outer):
            with trace_context(None):
                assert current_trace_context() == outer

    def test_threads_do_not_inherit_ambient_context(self):
        seen = []
        with trace_context(TraceContext("ab" * 8, "cd" * 8)):
            worker = threading.Thread(
                target=lambda: seen.append(current_trace_context())
            )
            worker.start()
            worker.join()
        assert seen == [None]


class TestTracerContinuation:
    def test_tracer_adopts_wire_trace_id(self):
        context = TraceContext("deadbeefcafef00d", "cd" * 8)
        tracer = Tracer(context=context)
        assert tracer.trace_id == "deadbeefcafef00d"

    def test_root_span_records_remote_parent(self):
        context = TraceContext("deadbeefcafef00d", "cd" * 8)
        tracer = Tracer(context=context)
        with tracer.span("serve"):
            pass
        assert tracer.spans[0].remote_parent_id == "cd" * 8

    def test_local_root_span_has_no_remote_parent(self):
        tracer = Tracer()
        with tracer.span("local"):
            pass
        assert tracer.spans[0].remote_parent_id == ""

    def test_span_ids_are_stable_unique_hex(self):
        tracer = Tracer()
        with tracer.span("a"), tracer.span("b"):
            pass
        ids = [span.span_id for span in tracer.trace().walk()]
        assert all(len(span_id) == 16 for span_id in ids)
        assert all(int(span_id, 16) >= 0 for span_id in ids)
        assert len(set(ids)) == len(ids)

    def test_context_for_names_the_span(self):
        tracer = Tracer()
        with tracer.span("op") as span:
            context = tracer.context_for(span)
        assert context.trace_id == tracer.trace_id
        assert context.span_id == span.span_id


class TestTraceCollector:
    def test_ring_buffer_drops_oldest(self):
        collector = TraceCollector(capacity=2)
        for name in ("a", "b", "c"):
            tracer = Tracer(trace_id=name)
            collector.add(tracer.trace())
        assert [trace.trace_id for trace in collector.traces()] == ["b", "c"]

    def test_filter_by_trace_id(self):
        collector = TraceCollector()
        collector.add(Tracer(trace_id="x").trace())
        collector.add(Tracer(trace_id="y").trace())
        assert len(collector.traces("x")) == 1
        assert collector.traces("z") == []

    def test_clear_and_len(self):
        collector = TraceCollector()
        collector.add(Tracer().trace())
        assert len(collector) == 1
        collector.clear()
        assert len(collector) == 0
