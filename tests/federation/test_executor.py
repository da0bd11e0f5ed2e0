"""The executor protocol, over both drivers.

:class:`AsyncExecutor` has its own suite (``test_async_executor.py``:
ordering, delivery, cancellation, the wall-clock overlap); this file
holds what the two drivers share.
"""

from repro.federation import AsyncExecutor, Executor, SerialExecutor


class TestExecutors:
    def test_protocol_conformance(self):
        assert isinstance(SerialExecutor(), Executor)
        assert isinstance(AsyncExecutor(), Executor)
        assert SerialExecutor().name == "serial"
        assert AsyncExecutor().name == "async"

    def test_submit_is_part_of_the_protocol(self):
        class RunOnly:
            name = "run-only"

            def run(self, tasks, fn): ...

            def run_stream(self, tasks, fn): ...

        assert not isinstance(RunOnly(), Executor)

    def test_results_keep_task_order(self):
        tasks = list(range(20))
        for executor in (SerialExecutor(), AsyncExecutor(max_concurrency=4)):
            assert executor.run(tasks, lambda n: n * n) == [n * n for n in tasks]

    def test_empty_and_single_task(self):
        for executor in (SerialExecutor(), AsyncExecutor()):
            assert executor.run([], str) == []
            assert executor.run([7], str) == ["7"]
