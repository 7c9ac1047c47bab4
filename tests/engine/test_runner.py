"""Unit tests for the execution runner (`repro.engine.runner`).

Covers the ``Execution`` value (its defaults and the unknown-mode and
``max_workers`` errors), order preservation across both backends, the
empty/single-task shortcuts, and the clear error process mode raises for
unpicklable workers.
"""

from __future__ import annotations

import os
import threading
import time

import pytest

from repro.engine.pool import WorkerPool, validate_max_workers
from repro.engine.runner import EXECUTION_MODES, Execution, run_many
from repro.exceptions import ConfigurationError, TaskError


# Module-level workers: process mode must be able to pickle them.
def _square(value: int) -> int:
    return value * value


def _slow_identity(value: float) -> float:
    # Later tasks finish first unless the backend preserves submission order.
    time.sleep(0.05 / (1.0 + value))
    return value


def _explode(value):  # pragma: no cover - must never be called
    raise AssertionError("worker must not run for an empty task list")


def _worker_factory():
    # A factory-built worker is a nested function: it cannot pickle.
    def built_worker(value):  # pragma: no cover - never reaches a worker
        return value

    return built_worker


class TestExecution:
    def test_defaults_to_sequential(self):
        assert Execution() == Execution(mode="sequential")

    @pytest.mark.parametrize("mode", EXECUTION_MODES)
    def test_explicit_modes_pass_through(self, mode):
        assert Execution(mode=mode).mode == mode

    @pytest.mark.parametrize("mode", ["bogus", "thread", "threads", "parallel", "", "PROCESS"])
    def test_unknown_mode_raises_configuration_error(self, mode):
        with pytest.raises(ConfigurationError, match="unknown execution mode"):
            Execution(mode=mode)

    def test_thread_mode_error_names_the_valid_modes(self):
        with pytest.raises(ConfigurationError) as excinfo:
            Execution(mode="thread")
        message = str(excinfo.value)
        assert "'thread'" in message
        assert all(repr(mode) in message for mode in ("sequential", "process"))

    @pytest.mark.parametrize("bad_workers", [0, -1, -8])
    @pytest.mark.parametrize("mode", EXECUTION_MODES)
    def test_nonpositive_max_workers_rejected(self, mode, bad_workers):
        with pytest.raises(ConfigurationError, match="max_workers"):
            Execution(mode=mode, max_workers=bad_workers)

    def test_worker_pool_holds_no_policy(self):
        # The policy of a run lives on its Execution only.
        with pytest.raises(TypeError, match="policy"):
            WorkerPool(max_workers=1, policy=None)
        assert not hasattr(WorkerPool, "policy")

    def test_worker_pool_takes_no_start_method(self):
        # Workers start with the platform's default start method.
        with pytest.raises(TypeError, match="mp_context"):
            WorkerPool(max_workers=1, mp_context=None)


class TestRunMany:
    @pytest.mark.parametrize("mode", EXECUTION_MODES)
    def test_empty_tasks_shortcut(self, mode):
        assert run_many([], _explode, Execution(mode=mode)) == []

    @pytest.mark.parametrize("mode", EXECUTION_MODES)
    def test_single_task_runs_in_this_process(self, mode):
        # The one-task shortcut never pays pool startup: even in process
        # mode the worker executes in the calling process.
        assert run_many([os.getpid()], _same_pid, Execution(mode=mode)) == [True]

    def test_iterable_tasks_are_accepted(self):
        assert run_many(iter(range(4)), _square) == [0, 1, 4, 9]

    @pytest.mark.parametrize("mode", EXECUTION_MODES)
    def test_order_preserved(self, mode):
        values = [3.0, 0.0, 2.0, 1.0, 4.0]
        assert run_many(values, _slow_identity, Execution(mode=mode, max_workers=2)) == values

    def test_process_mode_computes_results(self):
        assert run_many([1, 2, 3], _square, Execution(mode="process", max_workers=2)) == [1, 4, 9]

    def test_max_workers_one_is_allowed(self):
        assert run_many([1, 2], _square, Execution(mode="process", max_workers=1)) == [1, 4]
        assert validate_max_workers(1) is None
        assert validate_max_workers(None) is None

    def test_unpicklable_worker_raises_clear_error(self):
        with pytest.raises(ConfigurationError, match="module-level function"):
            # repro: allow[REP006] -- deliberately unpicklable: tests the error
            run_many([1, 2], lambda value: value, Execution(mode="process"))

    def test_unpicklable_worker_error_names_the_worker(self):
        def local_closure(value):  # pragma: no cover - never reaches a worker
            return value

        for worker in (local_closure, _worker_factory()):
            with pytest.raises(ConfigurationError, match="picklable worker") as excinfo:
                run_many([1, 2], worker, Execution(mode="process"))
            assert worker.__qualname__ in str(excinfo.value)

    def test_unpicklable_task_raises_clear_error(self):
        tasks = [(1, threading.Lock()), (2, threading.Lock())]
        with pytest.raises(ConfigurationError, match="could not pickle a task"):
            run_many(tasks, _square, Execution(mode="process"))

    def test_worker_type_error_surfaces_with_task_identity(self):
        # A genuine TypeError raised *by the worker* must not be mislabelled
        # as a pickling problem: it surfaces as a TaskError naming the failed
        # task, with the original TypeError chained as __cause__.
        with pytest.raises(TaskError, match="task 0") as excinfo:
            run_many([1, 2], _raise_type_error, Execution(mode="process"))
        error = excinfo.value
        assert error.task_index == 0
        assert error.attempts == 1
        assert error.backend == "process"
        assert isinstance(error.__cause__, TypeError)
        assert "boom-from-the-worker" in str(error.__cause__)

    def test_explicit_pool_is_used_and_survives(self):
        with WorkerPool(max_workers=1) as pool:
            assert run_many([1, 2, 3], _square, Execution(mode="process", pool=pool)) == [1, 4, 9]
            # The pool stays open for further calls (persistent workers).
            assert run_many([4, 5], _square, Execution(mode="process", pool=pool)) == [16, 25]
        with pytest.raises(ConfigurationError, match="closed"):
            pool.map(_square, [1, 2])


def _same_pid(parent_pid: int) -> bool:
    return os.getpid() == parent_pid


def _raise_type_error(value):
    raise TypeError("boom-from-the-worker")
