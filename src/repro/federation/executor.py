"""Executors: how a batch of per-source tasks is driven.

The paper's metasearcher contacts "a few sources" per query; *how* it
contacts them is a deployment decision this protocol keeps out of the
pipeline.  There are two drivers.  :class:`SerialExecutor` runs tasks
one after another on the calling thread — deterministic, debuggable,
and the fastest when the round is CPU-bound (simulated time).
:class:`~repro.federation.aio.AsyncExecutor` overlaps the waits on one
event loop, so a round over hosts that really wait costs the slowest
source rather than the sum.  There is deliberately no thread-pool
driver between them: measured, one ties the event loop where waits
dominate and loses to both where CPU does (docs/architecture.md,
*Federation runtime*).  Both drivers return ``run`` results in task
order, so callers never depend on completion order.
"""

from __future__ import annotations

import logging
from collections.abc import Callable, Iterator, Sequence
from typing import Protocol, TypeVar, runtime_checkable

__all__ = [
    "Executor",
    "SerialExecutor",
    "submit_background",
]

TaskT = TypeVar("TaskT")
ResultT = TypeVar("ResultT")

logger = logging.getLogger(__name__)


@runtime_checkable
class Executor(Protocol):
    """Drives ``fn`` over ``tasks``: results in task order, or as they land."""

    name: str

    def run(
        self, tasks: Sequence[TaskT], fn: Callable[[TaskT], ResultT]
    ) -> list[ResultT]: ...

    def run_stream(
        self, tasks: Sequence[TaskT], fn: Callable[[TaskT], ResultT]
    ) -> Iterator[tuple[int, ResultT]]: ...

    def submit(self, fn: Callable[[], object]) -> None: ...


class SerialExecutor:
    """One task at a time, in order — the deterministic baseline."""

    name = "serial"

    def run(
        self, tasks: Sequence[TaskT], fn: Callable[[TaskT], ResultT]
    ) -> list[ResultT]:
        return [fn(task) for task in tasks]

    def run_stream(
        self, tasks: Sequence[TaskT], fn: Callable[[TaskT], ResultT]
    ) -> Iterator[tuple[int, ResultT]]:
        """Yield ``(index, result)`` lazily, one task at a time.

        Completion order *is* task order here, but laziness matters:
        a streaming caller that stops early never runs the remaining
        tasks at all.
        """
        for index, task in enumerate(tasks):
            yield index, fn(task)

    def submit(self, fn: Callable[[], object]) -> None:
        """Run ``fn`` inline — single-threaded code stays deterministic."""
        fn()


def submit_background(
    executor: Executor, fn: Callable[[], object], task_name: str = "background"
) -> None:
    """Schedule ``fn`` through ``executor.submit``.

    A worker exception used to vanish with its daemon thread (or, run
    inline, blow up a caller that had already been served its answer).
    Now every failure is surfaced the same way regardless of executor:
    logged with its traceback and counted in the
    ``background_task_failures_total`` metric, never re-raised into the
    foreground request.
    """

    def guarded() -> None:
        try:
            fn()
        except Exception:
            logger.exception("background task %r failed", task_name)
            from repro.observability.metrics import get_registry

            get_registry().counter(
                "background_task_failures_total",
                "Exceptions raised by fire-and-forget background tasks.",
                labels=("task",),
            ).labels(task=task_name).inc()

    executor.submit(guarded)
