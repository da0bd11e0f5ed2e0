"""Per-source query policies: deadlines, retries, backoff, hedging.

§3.3's operational worries — slow sources, charging sources — become
concrete knobs here.  A :class:`QueryPolicy` says how patient the
metasearcher is with one source (``timeout_ms``), how hard it tries
(``max_retries`` with exponential backoff), and whether it hedges a
slow first request with a duplicate (the tail-latency trade: one more
paid request against waiting out a straggler).
"""

from __future__ import annotations

from dataclasses import dataclass

__all__ = ["QueryPolicy"]


@dataclass(frozen=True, slots=True)
class QueryPolicy:
    """How one source's queries are executed.

    Attributes:
        timeout_ms: per-attempt deadline; ``None`` waits forever (well,
            until the transport itself gives up on a hung request).
        max_retries: additional attempts after the first, so
            ``max_retries=2`` allows three attempts in total.
        backoff_base_ms: wait before the first retry.
        backoff_multiplier: growth factor for successive retry waits.
        backoff_max_ms: cap on any single backoff wait.
        hedge_after_ms: if set, a request still unanswered after this
            long gets a duplicate fired at the same source; the faster
            answer wins, both requests are paid for.
        retry_on_timeout: whether a timeout is worth another attempt
            (an error always is).
    """

    timeout_ms: float | None = None
    max_retries: int = 0
    backoff_base_ms: float = 50.0
    backoff_multiplier: float = 2.0
    backoff_max_ms: float = 5_000.0
    hedge_after_ms: float | None = None
    retry_on_timeout: bool = True

    def __post_init__(self) -> None:
        if self.max_retries < 0:
            raise ValueError("max_retries must be >= 0")
        if self.backoff_base_ms < 0 or self.backoff_max_ms < 0:
            raise ValueError("backoff waits must be >= 0")
        if self.backoff_multiplier < 1.0:
            raise ValueError("backoff_multiplier must be >= 1")

    @property
    def max_attempts(self) -> int:
        return self.max_retries + 1

    def backoff_before(self, attempt_number: int) -> float:
        """Backoff wait (ms) before attempt ``attempt_number`` (1-based).

        The first attempt never waits; retry N waits
        ``base * multiplier**(N-1)``, capped at ``backoff_max_ms``.
        """
        if attempt_number <= 1:
            return 0.0
        wait = self.backoff_base_ms * self.backoff_multiplier ** (attempt_number - 2)
        return min(wait, self.backoff_max_ms)

    def should_retry(self, status: str, attempt_number: int) -> bool:
        """Is another attempt after ``attempt_number`` worth making?"""
        if attempt_number >= self.max_attempts:
            return False
        return status != "timeout" or self.retry_on_timeout

    def attempt_wall_budget_s(
        self, time_scale: float = 1.0, hang_cap_ms: float = 60_000.0, slack_s: float = 5.0
    ) -> float:
        """Wall-clock budget (seconds) for one realtime attempt.

        Used by the asyncio executor as the ``asyncio.timeout()`` guard
        around an awaited attempt: the *simulated* deadline decides the
        outcome deterministically (the transport clamps latency to
        ``timeout_ms``), so this bound only has to catch a genuinely
        hung handler.  It is deliberately generous — ``slack_s`` on top
        of the scaled simulated budget — so scheduler jitter can never
        flip an outcome.
        """
        simulated_ms = self.timeout_ms if self.timeout_ms is not None else hang_cap_ms
        return simulated_ms * time_scale / 1000.0 + slack_s
