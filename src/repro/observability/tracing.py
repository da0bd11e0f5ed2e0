"""Lightweight tracing and per-source metrics for the metasearch pipeline.

The paper's §3.3 worries about sources with "large response times" and
sources that "charge for their use" — concerns a metasearcher can only
act on if it can *see* where a query's time and money went.  This module
provides the minimal instrumentation the federation runtime threads
through discover → select → translate → query → merge:

* :class:`Span` — one timed phase, possibly nested, with free-form
  attributes (wall-clock is measured; simulated network time arrives as
  attributes set by the federation runner);
* :class:`Tracer` — a thread-safe factory/collector of spans;
* :class:`Trace` — the immutable-ish view a finished operation hands
  back, rendered to text by :func:`repro.observability.render_trace`.

What each source cost — requests, retries, failures, timeouts, hedges,
simulated latency, backoff, money — is counted once, in its
:class:`~repro.federation.SourceOutcome`'s attempts.  Everything is
dependency-free and cheap enough to leave on by default.
"""

from __future__ import annotations

import re
import threading
import time
import uuid
from collections import deque
from collections.abc import Iterator
from contextlib import contextmanager
from contextvars import ContextVar
from dataclasses import dataclass, field as dataclass_field

__all__ = [
    "Span",
    "Trace",
    "TraceCollector",
    "TraceContext",
    "Tracer",
    "current_trace_context",
    "trace_context",
]


#: The one shape of a ``traceparent`` value: lowercase ASCII hex only,
#: so no sign, no non-ASCII digit and no ``0x`` rides in as an id.
_TRACEPARENT = re.compile(r"([0-9a-f]{2})-([0-9a-f]{32})-([0-9a-f]{16})-([0-9a-f]{2})")


@dataclass(frozen=True, slots=True)
class TraceContext:
    """W3C-traceparent-style context a request carries across processes.

    ``trace_id`` names the whole distributed operation; ``span_id`` is
    the *caller's* span — the one the receiving process parents its own
    root span under, which is what stitches per-process trace fragments
    into one tree.  ``sampled`` rides along as the standard flag byte.
    """

    trace_id: str
    span_id: str
    sampled: bool = True

    def to_traceparent(self) -> str:
        """``00-{trace_id}-{span_id}-{flags}``, ids zero-padded to spec."""
        return (
            f"00-{self.trace_id:0>32}-{self.span_id:0>16}-"
            f"{'01' if self.sampled else '00'}"
        )

    @classmethod
    def from_traceparent(cls, header: str | None) -> "TraceContext | None":
        """Parse a traceparent header; ``None`` for absent or malformed.

        A malformed header is dropped rather than raised on — tracing
        must never fail a request that would otherwise succeed.
        """
        match = _TRACEPARENT.fullmatch(header.strip()) if header else None
        if match is None:
            return None
        version, trace_id, span_id, flags = match.groups()
        # W3C: version ff is invalid, and so are all-zero ids.
        if version == "ff" or not trace_id.strip("0") or not span_id.strip("0"):
            return None
        # Undo the padding to_traceparent applied to this module's
        # 16-hex trace ids, so a round trip compares equal.  Span ids
        # are generated at exactly 16 hex chars and pass through whole.
        if trace_id.startswith("0" * 16):
            trace_id = trace_id[16:]
        return cls(trace_id, span_id, sampled=bool(int(flags, 16) & 1))

    def child(self, span_id: str) -> "TraceContext":
        """The context a sub-request carries: same trace, new parent."""
        return TraceContext(self.trace_id, span_id, self.sampled)


#: The trace context ambient to the current thread/task, injected into
#: outbound requests by the transports.  Contextvars copy per asyncio
#: task, so interleaved coroutines never see each other's context;
#: thread pools do NOT inherit it — fan-out code captures the context
#: before dispatch and re-activates it inside each worker.
_ACTIVE_CONTEXT: ContextVar[TraceContext | None] = ContextVar(
    "repro_trace_context", default=None
)


def current_trace_context() -> TraceContext | None:
    """The ambient :class:`TraceContext`, if one is active."""
    return _ACTIVE_CONTEXT.get()


@contextmanager
def trace_context(context: TraceContext | None):
    """Activate ``context`` for the duration of the block (``None`` is a no-op)."""
    if context is None:
        yield
        return
    token = _ACTIVE_CONTEXT.set(context)
    try:
        yield
    finally:
        _ACTIVE_CONTEXT.reset(token)


@dataclass
class Span:
    """One timed phase of an operation, with nested children."""

    name: str
    start_ms: float
    end_ms: float | None = None
    attributes: dict[str, object] = dataclass_field(default_factory=dict)
    children: list["Span"] = dataclass_field(default_factory=list)
    #: Stable 16-hex id assigned at creation by the tracer; hand-built
    #: spans may leave it empty (exporters then synthesize local ids).
    span_id: str = ""
    #: For a root span continuing a remote trace: the caller's span id
    #: from the wire context, so stitched exports nest across processes.
    remote_parent_id: str = ""
    #: The owning tracer's clock (ms), so an open span can report its
    #: elapsed-so-far duration; spans built by hand leave it None.
    clock_ms: object = dataclass_field(default=None, repr=False, compare=False)

    @property
    def is_open(self) -> bool:
        """True until the span's ``with`` block (or operation) finishes."""
        return self.end_ms is None

    @property
    def duration_ms(self) -> float:
        """Wall-clock duration; elapsed-so-far while the span is open.

        A crashed operation leaves its spans open — reporting the time
        they had accrued (rather than 0.0) keeps a partial trace from
        rendering as a pile of zero-length phases.  Spans constructed
        without a tracer clock still read 0.0 while open.
        """
        if self.end_ms is None:
            if callable(self.clock_ms):
                return self.clock_ms() - self.start_ms
            return 0.0
        return self.end_ms - self.start_ms

    def annotate(self, **attributes: object) -> None:
        """Attach or overwrite attributes on this span."""
        self.attributes.update(attributes)

    def walk(self) -> Iterator["Span"]:
        """This span, then every descendant, depth first."""
        yield self
        for child in self.children:
            yield from child.walk()


@dataclass
class Trace:
    """A finished operation's spans, ready to render."""

    spans: list[Span] = dataclass_field(default_factory=list)
    #: The owning operation's id, threaded through every exported row.
    trace_id: str = ""

    def walk(self) -> Iterator[Span]:
        for span in self.spans:
            yield from span.walk()

    def find(self, name: str) -> Span | None:
        """The first span (depth first) whose name matches exactly."""
        for span in self.walk():
            if span.name == name:
                return span
        return None


class Tracer:
    """Thread-safe span collector.

    Spans nest automatically within one thread (a thread-local stack);
    code that fans out to worker threads passes ``parent=`` explicitly,
    since thread-local context does not cross the pool boundary.
    """

    def __init__(
        self,
        clock=None,
        trace_id: str | None = None,
        context: TraceContext | None = None,
    ) -> None:
        self._clock = clock or time.perf_counter
        self._origin = self._clock()
        self._lock = threading.Lock()
        self._local = threading.local()
        if context is not None and trace_id is None:
            trace_id = context.trace_id
        self.trace_id = trace_id or uuid.uuid4().hex[:16]
        #: The wire context this tracer continues, if any: root spans
        #: record its span id as their remote parent.
        self.context = context
        # Span ids: a per-tracer random prefix plus a sequence number is
        # unique across processes w.h.p. and far cheaper than a uuid per
        # span on the hot path.
        self._span_prefix = uuid.uuid4().hex[:8]
        self._span_seq = 0
        self.spans: list[Span] = []

    def _new_span_id(self) -> str:
        """A 16-hex span id (caller must hold ``self._lock``)."""
        self._span_seq += 1
        return f"{self._span_prefix}{self._span_seq:08x}"

    def now_ms(self) -> float:
        """Milliseconds since this tracer was created (wall clock)."""
        return (self._clock() - self._origin) * 1000.0

    def _stack(self) -> list[Span]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = []
            self._local.stack = stack
        return stack

    def _adopt(self, span: Span, owner: Span | None) -> None:
        """Assign the span's id, attach it, and link remote parentage.

        Caller must hold ``self._lock``.  A root span of a tracer that
        continues a wire context records the caller's span id, so the
        stitched cross-process export nests it correctly.
        """
        span.span_id = self._new_span_id()
        if owner is not None:
            owner.children.append(span)
        else:
            if self.context is not None:
                span.remote_parent_id = self.context.span_id
            self.spans.append(span)

    @contextmanager
    def span(self, name: str, parent: Span | None = None, **attributes: object):
        """Open a span; nests under the current span unless ``parent`` is given."""
        span = Span(name, self.now_ms(), attributes=dict(attributes), clock_ms=self.now_ms)
        stack = self._stack()
        owner = parent if parent is not None else (stack[-1] if stack else None)
        with self._lock:
            self._adopt(span, owner)
        stack.append(span)
        try:
            yield span
        finally:
            stack.pop()
            span.end_ms = self.now_ms()

    def open_span(
        self, name: str, parent: Span | None = None, **attributes: object
    ) -> Span:
        """Open a span *without* touching the thread-local stack.

        The ``with``-based :meth:`span` nests via a per-thread stack,
        which interleaved asyncio tasks on one thread would corrupt
        (task A would pop task B's span).  Async code opens spans
        explicitly — always with an explicit ``parent`` — and closes
        them with :meth:`close_span`.
        """
        span = Span(
            name, self.now_ms(), attributes=dict(attributes), clock_ms=self.now_ms
        )
        with self._lock:
            self._adopt(span, parent)
        return span

    def close_span(self, span: Span) -> None:
        """Close a span opened with :meth:`open_span` (idempotent)."""
        if span.end_ms is None:
            span.end_ms = self.now_ms()

    def event(
        self, name: str, parent: Span | None = None, **attributes: object
    ) -> Span:
        """A zero-duration span: something that happened at a point in time."""
        now = self.now_ms()
        span = Span(name, now, end_ms=now, attributes=dict(attributes))
        stack = self._stack()
        owner = parent if parent is not None else (stack[-1] if stack else None)
        with self._lock:
            self._adopt(span, owner)
        return span

    def context_for(self, span: Span) -> TraceContext:
        """The :class:`TraceContext` an outbound request under ``span`` carries."""
        return TraceContext(self.trace_id, span.span_id)

    def trace(self) -> Trace:
        """The collected spans as a :class:`Trace`."""
        return Trace(self.spans, trace_id=self.trace_id)


class TraceCollector:
    """A ring-buffered sink for finished server-side trace fragments.

    A published endpoint that handles a request
    carrying a :class:`TraceContext` records its server-side span into a
    per-request :class:`Tracer` and hands the finished :class:`Trace`
    here.  :func:`repro.observability.stitch_traces` merges these
    fragments with the client's own trace into one cross-process tree.
    """

    def __init__(self, capacity: int = 1024) -> None:
        if capacity < 1:
            raise ValueError("capacity must be >= 1")
        self.capacity = capacity
        self._lock = threading.Lock()
        self._traces: deque[Trace] = deque(maxlen=capacity)

    def add(self, trace: Trace) -> None:
        with self._lock:
            self._traces.append(trace)

    def traces(self, trace_id: str | None = None) -> list[Trace]:
        """Collected fragments, optionally only those of one trace."""
        with self._lock:
            snapshot = list(self._traces)
        if trace_id is None:
            return snapshot
        return [trace for trace in snapshot if trace.trace_id == trace_id]

    def clear(self) -> None:
        with self._lock:
            self._traces.clear()

    def __len__(self) -> int:
        with self._lock:
            return len(self._traces)
