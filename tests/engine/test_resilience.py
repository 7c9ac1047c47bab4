"""Unit tests for the fault-tolerant execution engine (`repro.engine.resilience`).

Covers policy validation, the outcome classification
(ok / error / timeout / crash / corrupt), recovery from worker crashes,
hangs and SIGKILL (exit 137), the ``process → sequential``
degradation ladder, task-identity preservation in :class:`TaskError`, and
the :class:`RunReport` account the engine keeps of every attempt.

Process-rung faults come from :class:`chaos.ChaosPool`; errors and corrupt
results on the sequential rung come from :class:`Flaky`, the tests' own
worker.
"""

from __future__ import annotations

import os
import time
from dataclasses import dataclass

import pytest

from chaos import ChaosPool
from repro.engine.resilience import (
    DEFAULT_POLICY,
    ExecutionPolicy,
    RunReport,
    execute_tasks,
)
from repro.engine.runner import Execution, run_many
from repro.exceptions import ConfigurationError, TaskError

# Module-level workers: process mode must be able to pickle them.
def _triple(value: int) -> int:
    return value * 3


def _pid_of(value: int) -> int:
    return os.getpid()


@dataclass
class Flaky:
    """``_triple``, except that its first ``times`` calls on ``value``
    raise (or, with ``corrupt``, return -1).  The calls are counted per
    instance: a copy pickled into a worker process counts its own."""

    value: int
    times: int = 1
    corrupt: bool = False
    calls: int = 0

    def __call__(self, value: int) -> int:
        if value == self.value and self.calls < self.times:
            self.calls += 1
            if self.corrupt:
                return -1
            raise ValueError(f"flaky task on {value}")
        return value * 3


#: Enough failures to outlast any attempt budget used below.
ALWAYS = 99


class TestExecutionPolicyValidation:
    def test_defaults_are_valid(self):
        assert DEFAULT_POLICY.max_attempts == 3

    @pytest.mark.parametrize(
        "kwargs",
        [
            {"max_attempts": 0},
            {"task_timeout": 0},
            {"task_timeout": -1.0},
            {"degrade_after": 0},
        ],
    )
    def test_invalid_knobs_rejected(self, kwargs):
        with pytest.raises(ConfigurationError):
            ExecutionPolicy(**kwargs)

    @pytest.mark.parametrize(
        "knob",
        ["backoff_base", "backoff_factor", "backoff_max", "backoff_jitter", "seed"],
    )
    def test_retry_backoff_knobs_are_gone(self, knob):
        # A charged retry is resubmitted at once: there is no delay to set.
        with pytest.raises(TypeError, match=knob):
            ExecutionPolicy(**{knob: 0})
        assert not hasattr(ExecutionPolicy, "backoff_delay")


class TestSequentialBackend:
    def test_plain_run_reports_every_task_ok(self):
        report = RunReport()
        results = execute_tasks(
            [1, 2, 3], _triple, DEFAULT_POLICY, report=report
        )
        assert results == [3, 6, 9]
        assert report.backend == "sequential"
        assert report.total_attempts == 3
        assert report.total_retries == 0
        assert all(task.completed for task in report.tasks)
        assert report.faulted_tasks == []

    def test_error_fault_is_retried_when_policy_allows(self):
        report = RunReport()
        results = execute_tasks(
            [1, 2, 3],
            Flaky(value=2),
            ExecutionPolicy(retry_errors=True),
            report=report,
        )
        assert results == [3, 6, 9]
        assert report.task(1).outcomes == ["error", "ok"]
        assert report.task(1).retries == 1

    def test_error_fails_fast_by_default_with_task_identity(self):
        with pytest.raises(TaskError) as excinfo:
            execute_tasks(
                [1, 2, 3], Flaky(value=3, times=ALWAYS), DEFAULT_POLICY
            )
        assert excinfo.value.task_index == 2
        assert excinfo.value.attempts == 1
        assert excinfo.value.backend == "sequential"

    def test_persistent_error_exhausts_the_attempt_budget(self):
        policy = ExecutionPolicy(retry_errors=True, max_attempts=3)
        with pytest.raises(TaskError, match="attempt budget exhausted") as excinfo:
            execute_tasks([5], Flaky(value=5, times=ALWAYS), policy)
        assert excinfo.value.attempts == 3

    def test_corrupt_results_are_retried_and_laundered(self):
        report = RunReport()
        results = execute_tasks(
            [7],
            Flaky(value=7, corrupt=True),
            ExecutionPolicy(validate_result=lambda value: value >= 0),
            report=report,
        )
        assert results == [21]  # never the rejected value
        assert report.task(0).outcomes == ["corrupt", "ok"]

    def test_without_process_control_every_task_runs_in_this_process(self):
        # No process rung: nothing is submitted to a pool, so no worker
        # process exists to fail, and nothing is demoted.
        report = RunReport()
        results = execute_tasks(
            [1, 2], _pid_of, DEFAULT_POLICY, report=report
        )
        assert results == [os.getpid(), os.getpid()]
        assert [task.outcomes for task in report.tasks] == [["ok"], ["ok"]]
        assert {task.final_backend for task in report.tasks} == {"sequential"}
        assert report.degradations == 0

    def test_validate_result_rejection_counts_as_corrupt(self):
        policy = ExecutionPolicy(
            max_attempts=2, validate_result=lambda value: value > 100
        )
        with pytest.raises(TaskError, match="corrupt"):
            execute_tasks([1], _triple, policy)


class TestProcessRecovery:
    def test_crash_once_recovers_and_replays_only_unfinished(self):
        report = RunReport()
        with ChaosPool(once={2: "crash"}, max_workers=2) as pool:
            results = pool.map(
                _triple,
                [0, 1, 2, 3, 4],
                report=report,
            )
        assert results == [0, 3, 6, 9, 12]
        assert report.respawns >= 1
        assert report.total_retries >= 1
        assert all(task.completed for task in report.tasks)

    def test_sigkill_exit137_recovers(self):
        report = RunReport()
        with ChaosPool(once={1: "exit137"}, max_workers=2) as pool:
            results = pool.map(
                _triple,
                [0, 1, 2, 3],
                report=report,
            )
        assert results == [0, 3, 6, 9]
        assert report.respawns >= 1

    def test_hang_is_reclaimed_by_task_timeout(self):
        report = RunReport()
        started = time.perf_counter()
        with ChaosPool(once={1: "hang"}, hang_seconds=30.0, max_workers=2) as pool:
            results = pool.map(
                _triple,
                [0, 1, 2, 3],
                policy=ExecutionPolicy(task_timeout=2.0),
                report=report,
            )
        elapsed = time.perf_counter() - started
        assert results == [0, 3, 6, 9]
        assert elapsed < 20.0  # nowhere near the 30s hang
        assert "timeout" in report.task(1).outcomes

    def test_persistent_worker_killer_degrades_down_the_ladder(self):
        # Task 0 kills its worker process on *every* attempt; the ladder
        # must carry it to the sequential rung, which never submits to a pool.
        report = RunReport()
        policy = ExecutionPolicy(degrade_after=1)
        with ChaosPool(every={0: "exit137"}, max_workers=2) as pool:
            results = pool.map(_triple, [0, 1, 2], policy=policy, report=report)
        assert results == [0, 3, 6]
        assert report.degradations == 1
        assert report.task(0).final_backend == "sequential"
        assert "crash" in report.task(0).outcomes

    def test_persistent_hang_finishes_in_the_parent(self):
        # Task 1 hangs its worker on *every* attempt; after one timeout it is
        # demoted to the sequential rung, which never submits to a pool.
        report = RunReport()
        policy = ExecutionPolicy(task_timeout=1.0, degrade_after=1)
        with ChaosPool(every={1: "hang"}, hang_seconds=30.0, max_workers=2) as pool:
            results = pool.map(_triple, [0, 1, 2], policy=policy, report=report)
        assert results == [0, 3, 6]
        assert report.degradations == 1
        assert report.task(1).outcomes == ["timeout", "ok"]
        assert report.task(1).final_backend == "sequential"

    def test_charged_retry_is_resubmitted_without_sleeping(self, monkeypatch):
        # The crashed worker generation is joined before the resubmission,
        # so the orchestrator has nothing to wait out.
        slept: list[float] = []
        monkeypatch.setattr(time, "sleep", slept.append)
        report = RunReport()
        with ChaosPool(once={0: "crash"}, max_workers=2) as pool:
            assert pool.map(_triple, [1, 2], report=report) == [3, 6]
        assert report.respawns >= 1
        assert report.task(0).outcomes == ["crash", "ok"]
        assert slept == []

    def test_worker_error_carries_task_identity_from_process_mode(self):
        with ChaosPool(once={1: "error"}, max_workers=2) as pool:
            with pytest.raises(TaskError) as excinfo:
                pool.map(_triple, [0, 1, 2])
        assert excinfo.value.task_index == 1
        assert excinfo.value.backend == "process"


class TestDegradationLadder:
    """``process → sequential``: when a task leaves the process rung, and
    what the sequential rung it lands on may still do with it."""

    def test_hard_failures_below_degrade_after_stay_on_the_process_rung(self):
        report = RunReport()
        policy = ExecutionPolicy(degrade_after=2)
        with ChaosPool(once={0: "crash"}, max_workers=2) as pool:
            results = pool.map(_triple, [0, 1], policy=policy, report=report)
        assert results == [0, 3]
        assert report.degradations == 0
        assert report.task(0).outcomes == ["crash", "ok"]
        assert report.task(0).final_backend == "process"

    def test_degrade_after_counts_hard_failures_before_demotion(self):
        report = RunReport()
        policy = ExecutionPolicy(degrade_after=2)
        with ChaosPool(every={0: "crash"}, max_workers=2) as pool:
            results = pool.map(_triple, [0, 1], policy=policy, report=report)
        assert results == [0, 3]
        assert report.degradations == 1
        assert report.task(0).outcomes == ["crash", "crash", "ok"]
        assert [a.backend for a in report.task(0).attempts] == [
            "process",
            "process",
            "sequential",
        ]
        assert report.task(1).final_backend == "process"

    def test_exhausted_process_budget_demotes_a_hard_failing_task(self):
        # degrade_after is never reached; the spent attempt budget demotes.
        report = RunReport()
        policy = ExecutionPolicy(max_attempts=2, degrade_after=5)
        with ChaosPool(every={0: "crash"}, max_workers=2) as pool:
            results = pool.map(_triple, [0, 1], policy=policy, report=report)
        assert results == [0, 3]
        assert report.degradations == 1
        assert report.task(0).outcomes == ["crash", "crash", "ok"]
        assert report.task(0).final_backend == "sequential"

    def test_worker_errors_never_demote(self):
        # An ordinary exception indicts the task, not the worker process:
        # it spends the process rung's budget and fails there.
        report = RunReport()
        policy = ExecutionPolicy(retry_errors=True, max_attempts=2)
        with ChaosPool(every={0: "error"}, max_workers=2) as pool:
            with pytest.raises(TaskError, match="attempt budget exhausted") as excinfo:
                pool.map(_triple, [0, 1], policy=policy, report=report)
        assert excinfo.value.backend == "process"
        assert excinfo.value.attempts == 2
        assert report.degradations == 0

    def test_demoted_task_gets_a_fresh_attempt_budget(self):
        # One crash demotes task 0; on the sequential rung it errors once
        # and, with max_attempts=2, still has a retry left.  The crash fires
        # before the worker runs, so only the sequential rung calls Flaky on 0.
        report = RunReport()
        policy = ExecutionPolicy(
            retry_errors=True, max_attempts=2, degrade_after=1
        )
        with ChaosPool(once={0: "crash"}, max_workers=2) as pool:
            results = pool.map(Flaky(value=0), [0, 1], policy=policy, report=report)
        assert results == [0, 3]
        assert report.task(0).outcomes == ["crash", "error", "ok"]
        assert report.task(0).final_backend == "sequential"

    def test_failure_after_demotion_names_the_sequential_backend(self):
        policy = ExecutionPolicy(degrade_after=1)
        with ChaosPool(once={0: "crash"}, max_workers=2) as pool:
            with pytest.raises(TaskError) as excinfo:
                pool.map(Flaky(value=0), [0, 1], policy=policy)
        assert excinfo.value.task_index == 0
        assert excinfo.value.backend == "sequential"
        assert excinfo.value.attempts == 2


class TestRunManyIntegration:
    def test_plain_sequential_run_goes_through_the_engine(self):
        # No policy: the default one, and one attempt per task on the report.
        assert run_many([1, 2], _triple) == [3, 6]
        report = RunReport()
        assert run_many([1, 2], _triple, report=report) == [3, 6]
        assert report.total_attempts == 2

    def test_sequential_mode_with_policy_routes_through_engine(self):
        report = RunReport()
        results = run_many(
            [1, 2, 3],
            Flaky(value=1),
            Execution(
                mode="sequential",
                policy=ExecutionPolicy(retry_errors=True),
            ),
            report=report,
        )
        assert results == [3, 6, 9]
        assert report.backend == "sequential"
        assert report.task(0).retries == 1

    def test_run_report_summary_shape(self):
        report = RunReport()
        run_many([1], _triple, report=report)
        summary = report.summary()
        assert summary["tasks"] == 1
        assert summary["total_attempts"] == 1
        assert summary["respawns"] == 0
        assert summary["final_backends"] == ["sequential"]
        assert summary["wall_seconds"] >= 0.0
