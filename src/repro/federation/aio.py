"""The asyncio-native executor: thousands of source queries in flight.

The thread-pool :class:`~repro.federation.executor.ParallelExecutor`
fans a query round out at one OS thread per source — fine for eight
sources, ruinous for eight hundred.  :class:`AsyncExecutor` drives the
same round as asyncio tasks on one event loop: waiting on a simulated
(or real) network costs a suspended coroutine, not a blocked thread,
so a single process can hold thousands of in-flight source queries
bounded only by the per-query semaphore.

It satisfies the existing :class:`~repro.federation.executor.Executor`
protocol (``name`` + ``run`` returning results in task order), so every
current ``Metasearcher`` caller works unchanged — the sync façade owns
a private event loop per call.  Two extensions make streaming possible:

* ``run`` and ``run_stream`` accept *coroutine functions* as well as
  plain callables; the federation runner hands over its per-source
  policy coroutine and the loop multiplexes the waits.  Plain callables
  degrade gracefully to a worker-thread pool.
* :meth:`run_stream` yields ``(index, result)`` pairs *in completion
  order* — the primitive under ``Metasearcher.search_stream``'s
  incremental emission.  Abandoning the generator (early termination)
  cancels every task still in flight.
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
        tasks = list(tasks)
        results: list[ResultT] = [None] * len(tasks)  # type: ignore[list-item]
        for index, result in self.run_stream(tasks, fn):
            results[index] = result
        return results

    def run_stream(
        self, tasks: Sequence[TaskT], fn: Callable[[TaskT], ResultT]
    ) -> Iterator[tuple[int, ResultT]]:
        """Yield ``(task index, result)`` pairs in *completion* order.

        The generator owns the event loop: every task is started up
        front (semaphore-capped), and each ``next()`` runs the loop
        until another task finishes.  Closing the generator early
        cancels all remaining tasks — the cancellation path behind
        deadline expiry and provably-stable early termination.
        """
        tasks = list(tasks)
        if not tasks:
            return
        is_coroutine = inspect.iscoroutinefunction(fn)
        pool: _ThreadPool | None = None
        if not is_coroutine:
            pool = _ThreadPool(max_workers=min(self.max_concurrency, len(tasks)))
        loop = asyncio.new_event_loop()
        task_objects: list[asyncio.Task] = []
        try:
            semaphore = asyncio.Semaphore(self.max_concurrency)
            queue: asyncio.Queue = asyncio.Queue()

            async def drive_one(index: int, task: TaskT) -> None:
                async with semaphore:
                    self._enter_task()
                    try:
                        if is_coroutine:
                            result = await fn(task)
                        else:
                            result = await asyncio.get_running_loop().run_in_executor(
                                pool, fn, task
                            )
                    except Exception as error:
                        await queue.put((index, None, error))
                        return
                    finally:
                        self._exit_task()
                await queue.put((index, result, None))

            async def start_all() -> None:
                for index, task in enumerate(tasks):
                    task_objects.append(
                        asyncio.get_running_loop().create_task(drive_one(index, task))
                    )

            loop.run_until_complete(start_all())
            for _ in range(len(tasks)):
                index, result, error = loop.run_until_complete(queue.get())
                if error is not None:
                    raise error
                yield index, result
        finally:
            for task_object in task_objects:
                task_object.cancel()
            if task_objects:
                loop.run_until_complete(
                    asyncio.gather(*task_objects, return_exceptions=True)
                )
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
            if self._inflight > self.peak_inflight:
                self.peak_inflight = self._inflight
        _inflight_gauge(self.name).inc()

    def _exit_task(self) -> None:
        with self._inflight_lock:
            self._inflight -= 1
        _inflight_gauge(self.name).dec()
