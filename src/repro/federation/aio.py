"""The asyncio-native executor: thousands of source queries in flight.

One OS thread per in-flight source is fine for eight sources and
ruinous for eight hundred.  :class:`AsyncExecutor` drives a query round
as asyncio tasks on one event loop: waiting on a simulated (or real)
network costs a suspended coroutine, not a blocked thread, so a single
process can hold thousands of in-flight source queries bounded only by
the per-query semaphore.

It satisfies the :class:`~repro.federation.executor.Executor` protocol
(``name``, ``run`` in task order, ``run_stream`` in completion order),
so every ``Metasearcher`` caller works unchanged — the sync façade owns
a private event loop per call.  Two things set it apart:

* ``run`` and ``run_stream`` accept *coroutine functions* as well as
  plain callables; the federation runner hands over its per-source
  policy coroutine and the loop multiplexes the waits.  Plain callables
  degrade gracefully to a worker-thread pool.
* :meth:`run_stream` — the primitive under ``search_stream``'s
  incremental emission — hands a finished task to its consumer at the
  end of the event-loop step it finished in, before any later arrival
  is processed.  Abandoning the generator cancels whatever is in flight.
"""

from __future__ import annotations

import asyncio
import inspect
import threading
from collections.abc import Callable, Iterator, Sequence
from concurrent.futures import ThreadPoolExecutor as _ThreadPool
from typing import TypeVar

from repro.observability.metrics import get_registry

__all__ = ["AsyncExecutor"]

TaskT = TypeVar("TaskT")
ResultT = TypeVar("ResultT")


def _inflight_gauge(executor_name: str):
    return get_registry().gauge(
        "executor_inflight_tasks",
        "Source-query tasks currently in flight per executor.",
        labels=("executor",),
    ).labels(executor=executor_name)


class AsyncExecutor:
    """Asyncio fan-out: one event loop, semaphore-capped task concurrency.

    Args:
        max_concurrency: per-``run`` cap on simultaneously executing
            tasks (the per-query concurrency cap).  Tasks beyond the cap
            queue on the semaphore and start as slots free.

    The executor is stateless between calls apart from telemetry
    (``peak_inflight`` and the ``executor_inflight_tasks`` gauge), so
    one instance is safe to share across searchers and threads — each
    ``run``/``run_stream`` owns a private event loop.  The sync façade
    cannot be called from inside a running event loop; callers already
    inside a loop should await the task coroutines directly.
    """

    name = "async"
    #: The federation runner checks this to hand over its policy
    #: coroutine instead of the blocking driver around it.
    is_async = True

    def __init__(self, max_concurrency: int = 64) -> None:
        if max_concurrency < 1:
            raise ValueError("max_concurrency must be >= 1")
        self.max_concurrency = max_concurrency
        self._inflight_lock = threading.Lock()
        self._inflight = 0
        #: High-water mark of simultaneously executing tasks across
        #: every run this executor has driven (all threads).
        self.peak_inflight = 0

    # -- Executor protocol -------------------------------------------------

    def run(
        self, tasks: Sequence[TaskT], fn: Callable[[TaskT], ResultT]
    ) -> list[ResultT]:
        """Drive ``fn`` over ``tasks``; results come back in task order.

        ``fn`` may be a plain callable (run on worker threads, capped at
        ``max_concurrency``) or a coroutine function (run natively as
        asyncio tasks).
        """
        results = dict(self.run_stream(tasks, fn))
        return [results[index] for index in range(len(results))]

    def run_stream(
        self, tasks: Sequence[TaskT], fn: Callable[[TaskT], ResultT]
    ) -> Iterator[tuple[int, ResultT]]:
        """Yield ``(task index, result)`` pairs in *completion* order.

        The generator owns the event loop: every task is started up
        front (semaphore-capped); a finishing task appends its result to
        a plain list and stops the loop, which each ``next()`` runs
        until then.  A finished task thus reaches the consumer at the
        end of the loop step it finished in — before any later arrival
        is processed — followed by whatever else finished in that step.
        Closing the generator early cancels all remaining tasks: the
        path behind deadline expiry and stable-top-k early termination.
        """
        tasks = list(tasks)
        if not tasks:
            return
        loop = asyncio.new_event_loop()
        pool: _ThreadPool | None = None
        if not inspect.iscoroutinefunction(fn):
            pool = _ThreadPool(max_workers=min(self.max_concurrency, len(tasks)))
        semaphore = asyncio.Semaphore(self.max_concurrency)
        finished: list[tuple[int, ResultT | None, Exception | None]] = []

        async def drive_one(index: int, task: TaskT) -> None:
            result = error = None
            async with semaphore:
                self._enter_task()
                try:
                    if pool is None:
                        result = await fn(task)
                    else:
                        result = await loop.run_in_executor(pool, fn, task)
                except Exception as raised:
                    error = raised
                finally:
                    self._exit_task()
            finished.append((index, result, error))
            loop.stop()

        task_objects = [
            loop.create_task(drive_one(index, task)) for index, task in enumerate(tasks)
        ]
        try:
            remaining = len(tasks)
            while remaining:
                loop.run_forever()
                step, finished[:] = finished[:], ()  # taken; the list is reused
                remaining -= len(step)
                for index, result, error in step:
                    if error is not None:
                        raise error
                    yield index, result
        finally:
            for task_object in task_objects:
                task_object.cancel()
            settled = asyncio.gather(*task_objects, return_exceptions=True)
            loop.run_until_complete(settled)
            if pool is not None:
                pool.shutdown(wait=False, cancel_futures=True)
            loop.close()

    def submit(self, fn: Callable[[], object]) -> None:
        """Run ``fn`` on a daemon thread; the caller never waits for it.

        Background work (cache revalidation) carries its own event loop
        if it needs one; a per-call thread keeps the executor stateless.
        """
        threading.Thread(target=fn, daemon=True).start()

    # -- telemetry ---------------------------------------------------------

    def _enter_task(self) -> None:
        with self._inflight_lock:
            self._inflight += 1
            self.peak_inflight = max(self.peak_inflight, self._inflight)
        _inflight_gauge(self.name).inc()

    def _exit_task(self) -> None:
        with self._inflight_lock:
            self._inflight -= 1
        _inflight_gauge(self.name).dec()
