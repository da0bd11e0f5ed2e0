"""The executor protocol, over both drivers.

:class:`AsyncExecutor` has its own suite (``test_async_executor.py``:
ordering, delivery, cancellation, the wall-clock overlap); this file
holds what the two drivers share.
"""

from repro.federation import AsyncExecutor, Executor, SerialExecutor


def task_function(executor, fn):
    """``fn`` as ``executor`` takes it: wrapped in a coroutine function
    for an ``is_async`` executor, as it is for the serial one."""
    if getattr(executor, "is_async", False):

        async def task(argument):
            return fn(argument)

        return task
    return fn


class TestExecutors:
    def test_protocol_conformance(self):
        assert isinstance(SerialExecutor(), Executor)
        assert isinstance(AsyncExecutor(), Executor)
        assert SerialExecutor().name == "serial"
        assert AsyncExecutor().name == "async"

    def test_the_protocol_is_name_run_and_run_stream(self):
        class RunOnly:
            name = "run-only"

            def run(self, tasks, fn): ...

        class RunAndStream(RunOnly):
            def run_stream(self, tasks, fn): ...

        # No fire-and-forget hook: an executor drives only the round its
        # caller waits on.
        assert not isinstance(RunOnly(), Executor)
        assert isinstance(RunAndStream(), Executor)
        assert not hasattr(SerialExecutor(), "submit")
        assert not hasattr(AsyncExecutor(), "submit")

    def test_results_keep_task_order(self):
        tasks = list(range(20))
        for executor in (SerialExecutor(), AsyncExecutor(max_concurrency=4)):
            square = task_function(executor, lambda n: n * n)
            assert executor.run(tasks, square) == [n * n for n in tasks]

    def test_empty_and_single_task(self):
        for executor in (SerialExecutor(), AsyncExecutor()):
            assert executor.run([], task_function(executor, str)) == []
            assert executor.run([7], task_function(executor, str)) == ["7"]
