"""Per-source outcomes: the partial-result vocabulary of a federation.

A metasearch over N sources is not all-or-nothing: each source
independently succeeds, errors, times out, or is skipped before any
request is sent (translation left nothing askable).  A
:class:`SourceOutcome` records which, together with every attempt made
on the wire, so merging can proceed over the survivors while the
failures stay visible — §3.3's slow and charging sources become data,
not exceptions.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field as dataclass_field

from repro.starts.results import SQResults

__all__ = ["OutcomeStatus", "Attempt", "SourceOutcome"]


class OutcomeStatus(str, enum.Enum):
    """How one source's part of a federated query ended."""

    OK = "ok"
    ERROR = "error"
    TIMEOUT = "timeout"
    SKIPPED = "skipped"
    #: Abandoned mid-flight by a streaming search: the merged top-k was
    #: provably stable (or the deadline expired) before this source
    #: answered.  Not a failure — the source was never given the chance.
    CANCELLED = "cancelled"

    def __str__(self) -> str:  # pragma: no cover - cosmetic
        return self.value


@dataclass(frozen=True, slots=True)
class Attempt:
    """One wire request made on behalf of a source.

    Hedged duplicates share the ``number`` of the attempt that spawned
    them and set ``hedged``.
    """

    number: int
    status: OutcomeStatus
    latency_ms: float
    cost: float = 0.0
    backoff_before_ms: float = 0.0
    hedged: bool = False
    error: str | None = None


@dataclass
class SourceOutcome:
    """Everything that happened to one source during a query round.

    Attributes:
        elapsed_ms: the *simulated* wire-clock this source occupied —
            attempts plus backoff waits, sequential within the source,
            with hedges overlapping their primary.
        cost: total monetary cost across every request, including
            failed attempts and losing hedges (they were still paid).
        sibling_ids: sources answered by the same routed request
            (Figure-1 ``Sources`` grouping).
    """

    source_id: str
    status: OutcomeStatus
    results: SQResults | None = None
    attempts: tuple[Attempt, ...] = ()
    elapsed_ms: float = 0.0
    cost: float = 0.0
    error: str | None = None
    skip_reason: str | None = None
    sibling_ids: tuple[str, ...] = dataclass_field(default_factory=tuple)

    @property
    def ok(self) -> bool:
        return self.status is OutcomeStatus.OK

    @property
    def retries(self) -> int:
        """Attempts beyond the first (hedged duplicates excluded)."""
        numbers = {attempt.number for attempt in self.attempts if not attempt.hedged}
        return max(len(numbers) - 1, 0)

    @property
    def requests(self) -> int:
        return len(self.attempts)

    @classmethod
    def skip(
        cls, source_id: str, reason: str, sibling_ids: tuple[str, ...] = ()
    ) -> "SourceOutcome":
        """A source never contacted, with the reason on record."""
        return cls(
            source_id,
            OutcomeStatus.SKIPPED,
            skip_reason=reason,
            sibling_ids=tuple(sibling_ids),
        )

    @classmethod
    def cancelled(
        cls, source_id: str, reason: str, sibling_ids: tuple[str, ...] = ()
    ) -> "SourceOutcome":
        """A source abandoned mid-stream, with the reason on record.

        Unlike a skip, the request may already have been on the wire
        (and paid for); unlike an error, the source did nothing wrong —
        negative caching treats it as neutral.
        """
        return cls(
            source_id,
            OutcomeStatus.CANCELLED,
            skip_reason=reason,
            sibling_ids=tuple(sibling_ids),
        )

    def describe(self) -> str:
        """One display line: status, attempts, hedges, wire time, cost."""
        if self.skip_reason is not None and not self.attempts:
            return f"{self.source_id}: {self.status.value} ({self.skip_reason})"
        hedges = sum(attempt.hedged for attempt in self.attempts)
        detail = (
            f"{self.source_id}: {self.status.value} after {self.requests} request(s)"
            f" ({self.retries} retr{'y' if self.retries == 1 else 'ies'}"
            f"{f', {hedges} hedged' if hedges else ''}),"
            f" {self.elapsed_ms:.1f}ms wire, cost {self.cost:.2f}"
        )
        if self.error or self.skip_reason:
            detail += f" — {self.error or self.skip_reason}"
        return detail
