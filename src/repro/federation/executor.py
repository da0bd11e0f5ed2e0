"""Executors: how a batch of per-source tasks is driven.

The paper's metasearcher contacts "a few sources" per query; *how* it
contacts them is a deployment decision this protocol keeps out of the
pipeline.  :class:`SerialExecutor` runs tasks one after another —
deterministic, debuggable, and what the original reproduction did.
:class:`ParallelExecutor` fans out over a thread pool, so a query round
costs the slowest source rather than the sum of all of them — the
NeuralSearchX-style concurrent dispatch that makes federated serving
affordable.  Both return results in task order, so callers never
depend on completion order.
"""

from __future__ import annotations

import logging
import threading
from collections.abc import Callable, Iterator, Sequence
from concurrent.futures import FIRST_COMPLETED, ThreadPoolExecutor as _ThreadPool, wait
from typing import Protocol, TypeVar, runtime_checkable

__all__ = [
    "Executor",
    "SerialExecutor",
    "ParallelExecutor",
    "run_tasks_catching",
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


class ParallelExecutor:
    """Thread-pool fan-out: a query round costs the slowest source.

    Args:
        max_workers: pool size; defaults to one thread per task, capped
            at 32.  A fresh pool per batch keeps the executor stateless
            and safe to share between searchers.
    """

    name = "parallel"

    def __init__(self, max_workers: int | None = None) -> None:
        if max_workers is not None and max_workers < 1:
            raise ValueError("max_workers must be >= 1")
        self.max_workers = max_workers

    def run(
        self, tasks: Sequence[TaskT], fn: Callable[[TaskT], ResultT]
    ) -> list[ResultT]:
        tasks = list(tasks)
        if len(tasks) <= 1:
            return [fn(task) for task in tasks]
        workers = self.max_workers or min(32, len(tasks))
        with _ThreadPool(max_workers=min(workers, len(tasks))) as pool:
            return list(pool.map(fn, tasks))

    def run_stream(
        self, tasks: Sequence[TaskT], fn: Callable[[TaskT], ResultT]
    ) -> Iterator[tuple[int, ResultT]]:
        """Yield ``(index, result)`` pairs in completion order.

        Futures are submitted up front; each ``next()`` waits for the
        earliest remaining completion, so a streaming caller sees the
        fastest source first.  Abandoning the generator cancels any
        futures that have not started.
        """
        tasks = list(tasks)
        if not tasks:
            return
        workers = self.max_workers or min(32, len(tasks))
        pool = _ThreadPool(max_workers=min(workers, len(tasks)))
        try:
            futures = {pool.submit(fn, task): index for index, task in enumerate(tasks)}
            pending = set(futures)
            while pending:
                done, pending = wait(pending, return_when=FIRST_COMPLETED)
                for future in done:
                    yield futures[future], future.result()
        finally:
            for future in futures:
                future.cancel()
            pool.shutdown(wait=False, cancel_futures=True)

    def submit(self, fn: Callable[[], object]) -> None:
        """Run ``fn`` on a daemon thread; the caller never waits for it.

        Used for fire-and-forget work like cache revalidation, where the
        stale answer has already been served and the refresh must not
        block the response.  A per-call thread (not the batch pool —
        that one is created and torn down per ``run``) keeps this
        executor stateless.
        """
        threading.Thread(target=fn, daemon=True).start()


def run_tasks_catching(
    executor: Executor,
    tasks: Sequence[TaskT],
    fn: Callable[[TaskT], ResultT],
) -> "list[tuple[ResultT | None, Exception | None]]":
    """Run ``fn`` over ``tasks``; per-task exceptions become values.

    Returns one ``(result, None)`` or ``(None, exception)`` pair per
    task, in task order, whatever the executor.  A fan-out caller (the
    broker root consulting its leaves) can then apply per-task fallback
    — retry after a failover, degrade, re-raise — without one failing
    task poisoning the whole batch, which is exactly what a bare
    ``executor.run`` would do.
    """

    def guarded(task: TaskT) -> "tuple[ResultT | None, Exception | None]":
        try:
            return fn(task), None
        except Exception as error:  # noqa: BLE001 — the caller decides
            return None, error

    return executor.run(tasks, guarded)


def submit_background(
    executor: object, fn: Callable[[], object], task_name: str = "background"
) -> None:
    """Schedule ``fn`` through ``executor.submit`` when it has one.

    Third-party executors only promise the :class:`Executor` protocol;
    for those, background work degrades gracefully to running inline.

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

    submit = getattr(executor, "submit", None)
    if callable(submit):
        submit(guarded)
    else:
        guarded()
