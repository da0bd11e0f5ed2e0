"""A simulated internet: URL registry with latency, cost and fault accounting.

STARTS deliberately leaves transport open; the reproduction moves SOIF
blobs through an in-process network that nevertheless behaves like the
one the paper worries about: some sources are slow, some charge per
query (§3.3 — "Some of these sources might charge for their use.  Some
of the sources might have large response times") — and some fail.
Every request is logged with its simulated latency, monetary cost
and status, giving the cost-aware source-selection experiments and the
fault-tolerance tests a measurable substrate.

Everything is deterministic: a seeded per-host jitter stream for
latency and a separate seeded stream for fault injection, so experiment
runs are reproducible request for request.

Two execution modes:

* the default accounts latency without waiting — experiments over
  thousands of requests stay fast;
* ``internet.realtime = True`` actually sleeps each request's simulated latency
  (scaled by ``time_scale``), so a concurrent executor's wall-clock
  advantage over a serial one is *measurable*, not estimated.

The registry is thread safe: accounting happens under a lock, sleeping
and handler execution outside it, so concurrent requests overlap the
way real network waits do.
"""

from __future__ import annotations

import asyncio
import random
import threading
import time
import zlib
from collections.abc import Callable
from contextvars import ContextVar
from dataclasses import dataclass
from typing import Protocol, runtime_checkable
from urllib.parse import urlparse

__all__ = [
    "HostProfile",
    "FaultProfile",
    "AccessRecord",
    "Endpoints",
    "SimulatedInternet",
    "Transport",
    "TransportError",
    "TransportTimeout",
    "current_request_headers",
]

#: An endpoint table, what a publisher declares once and either mount
#: serves: ``(method, name) -> handler``.  GET handlers take no
#: argument, POST handlers the request body; both return the response
#: bytes.  Mounted under a base URL, ``name`` answers at ``{base}/{name}``.
Endpoints = dict[tuple[str, str], Callable[..., bytes]]

#: The headers of the request currently being handled.  Both mounts set
#: this around each handler invocation (:func:`_call_handler`), so
#: server-side code (published sources) reads its
#: inbound headers — e.g. ``traceparent`` — without the handler
#: signature changing.
_REQUEST_HEADERS: ContextVar[dict[str, str] | None] = ContextVar(
    "repro_request_headers", default=None
)


def current_request_headers() -> dict[str, str]:
    """The inbound headers of the request being handled (may be empty)."""
    return dict(_REQUEST_HEADERS.get() or {})


def _call_handler(handler, headers: dict[str, str] | None, *arguments) -> bytes:
    """Run an endpoint handler as the "server side" of one request: it
    sees exactly the headers the request carried, never the caller's
    ambient context."""
    token = _REQUEST_HEADERS.set(dict(headers) if headers else None)
    try:
        return handler(*arguments)
    finally:
        _REQUEST_HEADERS.reset(token)


class TransportError(Exception):
    """Raised for unknown URLs, injected failures, or handler failures.

    When the failure happened on an accounted request, ``record`` holds
    the :class:`AccessRecord` so callers can still charge the latency
    and cost of the failed attempt.
    """

    def __init__(self, message: str = "", record: "AccessRecord | None" = None):
        super().__init__(message)
        self.record = record


class TransportTimeout(TransportError):
    """A request exceeded its deadline or hit an injected timeout."""


@dataclass(frozen=True, slots=True)
class HostProfile:
    """Performance/cost characteristics of one host.

    Attributes:
        latency_ms: mean simulated round-trip latency.
        jitter_ms: uniform jitter added on top (deterministic stream).
        cost_per_query: monetary cost charged per request to this host.
    """

    latency_ms: float = 20.0
    jitter_ms: float = 5.0
    cost_per_query: float = 0.0


@dataclass(frozen=True, slots=True)
class FaultProfile:
    """Deterministic, seedable fault injection for one host.

    Attributes:
        failure_rate: per-request probability of a connection failure
            (:class:`TransportError`); ``1.0`` models a dead host.
        timeout_rate: per-request probability of a hang
            (:class:`TransportTimeout`).
        fail_first: the first N requests fail, then the host recovers —
            the flaky-then-recover shape that retries are for.
        timeout_after: requests *after* the first N hang; ``0`` makes
            every request hang (a host that accepts but never answers).
        hang_ms: how long a hanging request takes before the transport
            itself gives up, when the caller sets no deadline.

    Probabilistic faults draw from a per-host seeded stream, so the
    same world produces the same failures run after run.
    """

    failure_rate: float = 0.0
    timeout_rate: float = 0.0
    fail_first: int = 0
    timeout_after: int | None = None
    hang_ms: float = 30_000.0

    @classmethod
    def dead(cls) -> "FaultProfile":
        """Every request fails with a connection error."""
        return cls(failure_rate=1.0)

    @classmethod
    def flaky(cls, recover_after: int) -> "FaultProfile":
        """Fail the first ``recover_after`` requests, then behave."""
        return cls(fail_first=recover_after)

    @classmethod
    def hangs(cls, after: int = 0, hang_ms: float = 30_000.0) -> "FaultProfile":
        """Hang every request after the first ``after`` good ones."""
        return cls(timeout_after=after, hang_ms=hang_ms)

    def decide(self, request_number: int, rng: random.Random) -> tuple[str, str]:
        """(status, detail) for request number ``request_number`` (1-based)."""
        if self.fail_first and request_number <= self.fail_first:
            return "error", (
                f"injected flaky failure ({request_number}/{self.fail_first} "
                "before recovery)"
            )
        if self.timeout_after is not None and request_number > self.timeout_after:
            return "timeout", (
                f"injected hang (request {request_number} > {self.timeout_after})"
            )
        if self.failure_rate or self.timeout_rate:
            roll = rng.random()
            if roll < self.failure_rate:
                return "error", "injected connection failure"
            if roll < self.failure_rate + self.timeout_rate:
                return "timeout", "injected hang"
        return "ok", ""


@dataclass(frozen=True, slots=True)
class AccessRecord:
    """One logged network interaction."""

    url: str
    method: str
    latency_ms: float
    cost: float
    status: str = "ok"


@dataclass
class _HostState:
    profile: HostProfile
    rng: random.Random
    fault_rng: random.Random
    faults: FaultProfile | None = None
    requests: int = 0


@runtime_checkable
class Transport(Protocol):
    """Everything the client side — ``StartsClient``, the federation
    dispatcher — may touch of a network.

    ``realtime`` / ``time_scale`` say how a simulated millisecond
    becomes wall-clock waiting (whether backoffs are slept and awaited
    attempts wall-guarded); real sockets are ``True`` / ``1.0``.
    """

    log: list[AccessRecord]
    realtime: bool
    time_scale: float

    def perform(
        self,
        url: str,
        method: str = "GET",
        body: bytes | None = None,
        deadline_ms: float | None = None,
        headers: dict[str, str] | None = None,
    ) -> tuple[bytes, AccessRecord]: ...

    async def perform_async(
        self,
        url: str,
        method: str = "GET",
        body: bytes | None = None,
        deadline_ms: float | None = None,
        headers: dict[str, str] | None = None,
    ) -> tuple[bytes, AccessRecord]: ...


class _AccessLog:
    """Accounting over ``self.log``, the same for every transport."""

    log: list[AccessRecord]

    def total_latency_ms(self) -> float:
        return sum(record.latency_ms for record in self.log)

    def total_cost(self) -> float:
        return sum(record.cost for record in self.log)

    def request_count(self, host: str | None = None) -> int:
        if host is None:
            return len(self.log)
        return sum(1 for record in self.log if _host_of(record.url) == host)

    def reset_log(self) -> None:
        self.log.clear()


class SimulatedInternet(_AccessLog):
    """URL → handler registry with latency/cost/fault simulation.

    Handlers are callables: GET handlers take no arguments and return
    ``bytes``; POST handlers take the request body (``bytes``) and
    return ``bytes``.

    Args:
        seed: root of the per-host jitter and fault streams.

    Attributes:
        realtime: when set True, each request sleeps its simulated
            latency (scaled by ``time_scale``) before returning, so
            wall-clock measurements reflect the simulated network.
            Toggled on an existing instance (off for discovery, on for
            the measured query round).
        time_scale: multiplier applied to simulated latency when
            sleeping in realtime mode.
    """

    def __init__(self, seed: int = 0) -> None:
        self._seed = seed
        self._get_handlers: dict[str, object] = {}
        self._post_handlers: dict[str, object] = {}
        self._hosts: dict[str, _HostState] = {}
        self._lock = threading.Lock()
        self.realtime = False
        self.time_scale = 1.0
        self.log: list[AccessRecord] = []

    # -- registration ----------------------------------------------------

    def register_host(
        self,
        host: str,
        profile: HostProfile | None = None,
        faults: FaultProfile | None = None,
    ) -> None:
        """Declare a host's performance profile (idempotent)."""
        with self._lock:
            self._ensure_host(host, profile, faults)

    def _ensure_host(
        self,
        host: str,
        profile: HostProfile | None = None,
        faults: FaultProfile | None = None,
    ) -> _HostState:
        state = self._hosts.get(host)
        if state is None:
            # crc32 rather than hash(): Python string hashing is
            # randomized per process, which would break cross-run
            # reproducibility of the simulated latencies.
            digest = zlib.crc32(host.encode("utf-8"))
            state = _HostState(
                profile or HostProfile(),
                random.Random((self._seed * 2654435761 + digest) & 0xFFFFFFFF),
                random.Random((self._seed * 40503 + digest * 69069) & 0xFFFFFFFF),
                faults=faults,
            )
            self._hosts[host] = state
        elif faults is not None and state.faults is None:
            state.faults = faults
        return state

    def set_fault_profile(self, host: str, faults: FaultProfile | None) -> None:
        """Attach (or clear) fault injection for a host, even mid-run.

        The host's request counter restarts, so count-based schedules
        (``fail_first``, ``timeout_after``) apply from this moment —
        earlier traffic (e.g. discovery) does not consume the schedule.
        """
        with self._lock:
            state = self._ensure_host(host)
            state.faults = faults
            state.requests = 0

    def register_get(self, url: str, handler) -> None:
        self.register_host(_host_of(url))
        self._get_handlers[url] = handler

    def register_post(self, url: str, handler) -> None:
        self.register_host(_host_of(url))
        self._post_handlers[url] = handler

    def mount(self, base_url: str, endpoints: Endpoints) -> None:
        """Serve an endpoint table under ``base_url``."""
        for (method, name), handler in endpoints.items():
            register = self.register_post if method == "POST" else self.register_get
            register(f"{base_url}/{name}", handler)

    # -- traffic ------------------------------------------------------------

    def perform(
        self,
        url: str,
        method: str = "GET",
        body: bytes | None = None,
        deadline_ms: float | None = None,
        headers: dict[str, str] | None = None,
    ) -> tuple[bytes, AccessRecord]:
        """One accounted request; returns ``(payload, record)``.

        ``deadline_ms`` is the caller's patience: a request whose
        simulated latency (natural or injected hang) exceeds it raises
        :class:`TransportTimeout` with the latency clamped to the
        deadline — the caller paid exactly the time it was willing to
        wait.  Failed requests still log a record (latency and cost are
        spent whether or not an answer arrives) and carry it on the
        raised exception.
        """
        handler, latency, status, detail, record = self._begin(
            url, method, deadline_ms
        )
        if self.realtime and latency > 0.0:
            time.sleep(latency * self.time_scale / 1000.0)
        return self._finish(handler, method, body, status, detail, record, headers)

    async def perform_async(
        self,
        url: str,
        method: str = "GET",
        body: bytes | None = None,
        deadline_ms: float | None = None,
        headers: dict[str, str] | None = None,
    ) -> tuple[bytes, AccessRecord]:
        """:meth:`perform`, awaiting instead of blocking the thread.

        Accounting (latency draw, fault decision, deadline clamp, log
        record) is identical to the synchronous path — the same world
        produces the same records either way.  The only difference is
        *how* realtime latency is spent: ``asyncio.sleep`` yields the
        event loop, so thousands of simulated requests can be in flight
        on one thread.
        """
        handler, latency, status, detail, record = self._begin(
            url, method, deadline_ms
        )
        if self.realtime and latency > 0.0:
            await asyncio.sleep(latency * self.time_scale / 1000.0)
        return self._finish(handler, method, body, status, detail, record, headers)

    def _begin(
        self, url: str, method: str, deadline_ms: float | None
    ) -> tuple[object, float, str, str, AccessRecord]:
        """The locked accounting half of a request: draw latency, decide
        faults, clamp to the caller's deadline, and log the record."""
        with self._lock:
            handlers = self._post_handlers if method == "POST" else self._get_handlers
            handler = handlers.get(url)
            if handler is None:
                raise TransportError(f"no {method} handler for {url!r}")
            state = self._ensure_host(_host_of(url))
            state.requests += 1
            profile = state.profile
            jitter = state.rng.uniform(-profile.jitter_ms, profile.jitter_ms)
            latency = max(0.0, profile.latency_ms + jitter)
            status, detail = "ok", ""
            if state.faults is not None:
                status, detail = state.faults.decide(state.requests, state.fault_rng)
                if status == "timeout":
                    latency = max(latency, state.faults.hang_ms)
            if deadline_ms is not None and latency > deadline_ms:
                status = "timeout"
                detail = detail or f"deadline of {deadline_ms:g}ms exceeded"
                latency = deadline_ms
            record = AccessRecord(url, method, latency, profile.cost_per_query, status)
            self.log.append(record)
        return handler, latency, status, detail, record

    @staticmethod
    def _finish(
        handler: object,
        method: str,
        body: bytes | None,
        status: str,
        detail: str,
        record: AccessRecord,
        headers: dict[str, str] | None = None,
    ) -> tuple[bytes, AccessRecord]:
        """The post-wait half: raise injected failures or run the handler."""
        if status == "timeout":
            raise TransportTimeout(f"{method} {record.url} timed out: {detail}", record)
        if status == "error":
            raise TransportError(f"{method} {record.url} failed: {detail}", record)
        arguments = (body,) if method == "POST" else ()
        return _call_handler(handler, headers, *arguments), record


def _host_of(url: str) -> str:
    return urlparse(url).netloc or url
