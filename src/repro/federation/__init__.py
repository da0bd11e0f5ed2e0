"""The federation executor layer: concurrent, fault-tolerant dispatch.

Extracted from the metasearcher's query round so per-source execution
is a first-class, testable subsystem: executors (serial vs asyncio
fan-out), per-source query policies (deadline, retries with backoff,
hedging), and partial-result outcomes that keep a search alive when
individual sources fail.
"""

from repro.federation.aio import AsyncExecutor
from repro.federation.executor import Executor, SerialExecutor
from repro.federation.outcomes import Attempt, OutcomeStatus, SourceOutcome
from repro.federation.policy import QueryPolicy
from repro.federation.runner import QueryDispatcher, SourceRequest

__all__ = [
    "AsyncExecutor",
    "Executor",
    "SerialExecutor",
    "Attempt",
    "OutcomeStatus",
    "SourceOutcome",
    "QueryPolicy",
    "QueryDispatcher",
    "SourceRequest",
]
