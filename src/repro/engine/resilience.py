"""Fault-tolerant task execution: policies, retries, timeouts, degradation.

The pre-PR-7 fan-out was a bare ``executor.map``: one crashed or hung worker
killed the whole sweep, and the exception that surfaced did not even say
which task failed.  This module is the execution discipline the engine's
COAT/PCTA/clustering sweeps run under instead:

* **per-task futures** — every task is submitted individually, so one
  failure is one task's problem and every other result survives;
* :class:`ExecutionPolicy` — bounded retries, a per-task timeout, and a
  degradation ladder (``process → sequential``): a task that repeatedly
  kills its worker, or keeps timing out, finishes in this process.  A
  charged retry is resubmitted at once: by then the crashed or hung worker
  generation has already been torn down, so there is nothing to wait for;
* **crash recovery** — a ``BrokenProcessPool`` (worker crash, SIGKILL, OOM)
  or a task timeout respawns the executor through the
  :class:`ProcessControl` hook, re-exports any shared-memory segment that
  went stale, and replays only the unfinished tasks;
* :class:`RunReport` — the structured account of what actually happened:
  per-task attempts with durations and error chains, executor respawns,
  ladder degradations and the backend each task finally completed on.

Failures are classified into four outcomes.  ``crash`` and ``timeout`` are
*hard*: they indict the worker process, count toward degradation and are
always retried.  ``corrupt`` (a result the policy's validator rejects) is
retried within the attempt budget.  ``error`` (an ordinary worker exception) is
deterministic in this codebase's pure workers, so it fails fast by default —
wrapped in :class:`~repro.exceptions.TaskError` with the task index, attempt
count and original exception chained — unless ``retry_errors`` is set.

Every retry loop here is bounded by the policy (``max_attempts`` per rung,
two rungs); the REP007 linter rule keeps it that way.
"""

from __future__ import annotations

import json
import pickle
import time
from concurrent.futures import Future
from concurrent.futures import TimeoutError as FutureTimeoutError
from concurrent.futures.process import BrokenProcessPool
from dataclasses import dataclass, field
from typing import Any, Callable, Protocol, Sequence

from repro.exceptions import ConfigurationError, TaskError

#: Outcomes that indict the worker process rather than the task's own code.
HARD_OUTCOMES = frozenset({"crash", "timeout"})


@dataclass(frozen=True)
class ExecutionPolicy:
    """How hard the engine tries before declaring a task failed.

    Parameters
    ----------
    task_timeout:
        Seconds of dedicated wait per attempt before the task is declared
        hung and its worker reclaimed (``None`` disables the timeout).
    max_attempts:
        Attempt budget *per rung*; across the process and sequential rungs
        a task is tried at most ``2 * max_attempts`` times.
    retry_errors:
        Retry ordinary worker exceptions too.  Off by default: the engine's
        workers are deterministic, so an exception would simply recur.
    degrade_after:
        Hard failures (crash/timeout) in worker processes before the task
        is demoted to the sequential rung, in this process.
    validate_result:
        Optional predicate; a result it rejects counts as a ``corrupt``
        attempt and is retried.  Runs in the orchestrating process.
    """

    task_timeout: float | None = None
    max_attempts: int = 3
    retry_errors: bool = False
    degrade_after: int = 2
    validate_result: Callable[[Any], bool] | None = None

    def __post_init__(self) -> None:
        if self.max_attempts < 1:
            raise ConfigurationError(
                f"max_attempts must be >= 1, got {self.max_attempts!r}"
            )
        if self.task_timeout is not None and self.task_timeout <= 0:
            raise ConfigurationError(
                f"task_timeout must be positive or None, got {self.task_timeout!r}"
            )
        if self.degrade_after < 1:
            raise ConfigurationError(
                f"degrade_after must be >= 1, got {self.degrade_after!r}"
            )


#: The policy a run executes under when its ``Execution`` names none.
DEFAULT_POLICY = ExecutionPolicy()


# -- run reporting -----------------------------------------------------------
@dataclass
class TaskAttempt:
    """One attempt of one task: where it ran and how it ended."""

    attempt: int  # 0-based ordinal across all backends
    backend: str
    outcome: str  # "ok" | "error" | "timeout" | "crash" | "corrupt"
    duration_seconds: float
    error: str = ""
    #: ``repr`` of the ``__cause__``/``__context__`` chain, outermost first.
    error_chain: tuple[str, ...] = ()

    def to_dict(self) -> dict[str, Any]:
        return {
            "attempt": self.attempt,
            "backend": self.backend,
            "outcome": self.outcome,
            "duration_seconds": self.duration_seconds,
            "error": self.error,
            "error_chain": list(self.error_chain),
        }

    @classmethod
    def from_dict(cls, data: dict[str, Any]) -> "TaskAttempt":
        return cls(
            attempt=int(data["attempt"]),
            backend=str(data["backend"]),
            outcome=str(data["outcome"]),
            duration_seconds=float(data["duration_seconds"]),
            error=str(data.get("error", "")),
            error_chain=tuple(data.get("error_chain", ())),
        )


@dataclass
class TaskReport:
    """Everything one task went through on its way to a result."""

    index: int
    attempts: list[TaskAttempt] = field(default_factory=list)
    #: Times the task was resubmitted without being charged an attempt
    #: (its executor died while the task was merely queued or in flight).
    replays: int = 0
    final_backend: str = ""
    completed: bool = False
    #: How the durable checkpoint store saw this task: ``""`` (no store),
    #: ``"hit"`` (served from disk), ``"miss"`` (computed and persisted) or
    #: ``"corrupt"`` (a damaged cell was detected and recomputed).
    checkpoint: str = ""

    @property
    def retries(self) -> int:
        return max(0, len(self.attempts) - 1)

    @property
    def outcomes(self) -> list[str]:
        return [attempt.outcome for attempt in self.attempts]

    def to_dict(self) -> dict[str, Any]:
        return {
            "index": self.index,
            "attempts": [attempt.to_dict() for attempt in self.attempts],
            "replays": self.replays,
            "final_backend": self.final_backend,
            "completed": self.completed,
            "checkpoint": self.checkpoint,
        }

    @classmethod
    def from_dict(cls, data: dict[str, Any]) -> "TaskReport":
        return cls(
            index=int(data["index"]),
            attempts=[
                TaskAttempt.from_dict(attempt)
                for attempt in data.get("attempts", ())
            ],
            replays=int(data.get("replays", 0)),
            final_backend=str(data.get("final_backend", "")),
            completed=bool(data.get("completed", False)),
            checkpoint=str(data.get("checkpoint", "")),
        )


@dataclass
class RunReport:
    """The structured account of one resilient fan-out."""

    tasks: list[TaskReport] = field(default_factory=list)
    backend: str = ""  # the backend the run started on
    respawns: int = 0
    degradations: int = 0
    wall_seconds: float = 0.0
    #: Structured warnings, e.g. checkpoint cells that were found damaged
    #: (torn/truncated/bit-rotted) and recomputed instead of served.
    warnings: list[str] = field(default_factory=list)

    def task(self, index: int) -> TaskReport:
        for task in self.tasks:
            if task.index == index:
                return task
        raise ConfigurationError(f"no task {index} in this report")

    @property
    def total_attempts(self) -> int:
        return sum(len(task.attempts) for task in self.tasks)

    @property
    def total_retries(self) -> int:
        return sum(task.retries for task in self.tasks)

    @property
    def faulted_tasks(self) -> list[int]:
        """Indices that needed more than one attempt (or a replay)."""
        return [
            task.index
            for task in self.tasks
            if task.retries or task.replays or not task.completed
        ]

    def checkpoint_counts(self) -> dict[str, int]:
        """Checkpoint statuses across tasks: hits, misses, corrupt-recomputes."""
        counts = {"hit": 0, "miss": 0, "corrupt": 0}
        for task in self.tasks:
            if task.checkpoint in counts:
                counts[task.checkpoint] += 1
        return counts

    def summary(self) -> dict[str, Any]:
        return {
            "tasks": len(self.tasks),
            "backend": self.backend,
            "total_attempts": self.total_attempts,
            "total_retries": self.total_retries,
            "replays": sum(task.replays for task in self.tasks),
            "respawns": self.respawns,
            "degradations": self.degradations,
            "faulted_tasks": self.faulted_tasks,
            "final_backends": sorted(
                {task.final_backend for task in self.tasks if task.final_backend}
            ),
            "wall_seconds": self.wall_seconds,
            "checkpoints": self.checkpoint_counts(),
            "warnings": len(self.warnings),
        }

    def to_dict(self) -> dict[str, Any]:
        return {
            "tasks": [task.to_dict() for task in self.tasks],
            "backend": self.backend,
            "respawns": self.respawns,
            "degradations": self.degradations,
            "wall_seconds": self.wall_seconds,
            "warnings": list(self.warnings),
        }

    @classmethod
    def from_dict(cls, data: dict[str, Any]) -> "RunReport":
        return cls(
            tasks=[TaskReport.from_dict(task) for task in data.get("tasks", ())],
            backend=str(data.get("backend", "")),
            respawns=int(data.get("respawns", 0)),
            degradations=int(data.get("degradations", 0)),
            wall_seconds=float(data.get("wall_seconds", 0.0)),
            warnings=[str(warning) for warning in data.get("warnings", ())],
        )

    def to_json(self, *, indent: int | None = None) -> str:
        """Serialize losslessly; ``from_json`` reconstructs an equal report."""
        return json.dumps(self.to_dict(), indent=indent, sort_keys=True)

    @classmethod
    def from_json(cls, text: str) -> "RunReport":
        return cls.from_dict(json.loads(text))


# -- backend controls --------------------------------------------------------
class ProcessControl(Protocol):
    """What the engine needs from a process pool: submission and rebirth."""

    def submit(self, fn: Callable[..., Any], *args: Any) -> "Future[Any]":
        """Submit one call to the pool's current executor."""

    def respawn(self, reason: str) -> Callable[[Any], Any] | None:
        """Tear the executor down (reclaiming crashed/hung workers), respawn
        it lazily, and return a task remapper that swaps re-exported
        shared-memory manifests into unfinished task payloads (or ``None``
        when nothing went stale)."""


# -- task state --------------------------------------------------------------
@dataclass
class _TaskState:
    index: int
    task: Any
    report: TaskReport
    demoted: bool = False  # moved from the process rung to the sequential one
    rung_attempts: int = 0
    hard_failures: int = 0  # crash/timeout count on the current rung
    total_attempts: int = 0
    done: bool = False
    result: Any = None
    last_error: BaseException | None = None

    @property
    def last_outcome(self) -> str:
        return self.report.attempts[-1].outcome if self.report.attempts else ""


def _error_chain(error: BaseException) -> tuple[str, ...]:
    chain: list[str] = []
    current: BaseException | None = error
    while current is not None and len(chain) < 8:
        chain.append(repr(current))
        current = current.__cause__ or current.__context__
    return tuple(chain)


def _translate_pickling_error(error: BaseException) -> None:
    """Raise the engine's typed error for task/result pickling failures.

    Unpicklable payloads surface as ``PicklingError``, ``TypeError``
    ("cannot pickle ...") or ``AttributeError`` ("Can't pickle local object
    ..."), depending on the offending object; a worker's own ``TypeError``
    must pass through untouched.
    """
    if not isinstance(error, (pickle.PicklingError, TypeError, AttributeError)):
        return
    if isinstance(error, pickle.PicklingError) or "pickle" in str(error).lower():
        raise ConfigurationError(
            f"mode='process' could not pickle a task or result ({error}); "
            f"ship shared datasets via WorkerPool.share() and keep task "
            f"payloads to plain picklable values"
        ) from error


def _record(
    state: _TaskState,
    backend: str,
    outcome: str,
    started: float,
    error: BaseException | None,
) -> None:
    state.report.attempts.append(
        TaskAttempt(
            attempt=state.total_attempts,
            backend=backend,
            outcome=outcome,
            duration_seconds=time.perf_counter() - started,
            error=repr(error) if error is not None else "",
            error_chain=_error_chain(error) if error is not None else (),
        )
    )
    state.total_attempts += 1
    state.rung_attempts += 1
    state.last_error = error
    if outcome in HARD_OUTCOMES:
        state.hard_failures += 1
    if outcome == "ok":
        state.done = True
        state.report.completed = True
        state.report.final_backend = backend


def _task_error(state: _TaskState, backend: str, detail: str) -> TaskError:
    return TaskError(
        f"task {state.index} failed on the {backend} backend after "
        f"{state.total_attempts} attempt(s) ({detail}); outcomes: "
        f"{state.report.outcomes}",
        task_index=state.index,
        attempts=state.total_attempts,
        backend=backend,
    )


def _accept(
    state: _TaskState,
    value: Any,
    policy: ExecutionPolicy,
    backend: str,
    started: float,
) -> None:
    """Classify a returned value: store it, or charge a ``corrupt`` attempt."""
    if policy.validate_result is not None and not policy.validate_result(value):
        _record(state, backend, "corrupt", started, None)
        return
    state.result = value
    _record(state, backend, "ok", started, None)


def _settle(
    state: _TaskState,
    policy: ExecutionPolicy,
    backend: str,
    report: RunReport,
) -> None:
    """Decide a failed task's fate after an attempt: retry, demote or raise.

    Hard outcomes happen only on the process rung, so only it demotes; the
    sequential rung is the floor.
    """
    hard = state.last_outcome in HARD_OUTCOMES
    exhausted = state.rung_attempts >= policy.max_attempts
    if hard and (state.hard_failures >= policy.degrade_after or exhausted):
        state.demoted = True
        state.rung_attempts = 0
        state.hard_failures = 0
        report.degradations += 1
        return
    if exhausted:
        raise _task_error(
            state, backend, f"attempt budget exhausted ({state.last_outcome})"
        ) from state.last_error


# -- the engine --------------------------------------------------------------
def execute_tasks(
    tasks: Sequence[Any],
    worker: Callable[[Any], Any],
    policy: ExecutionPolicy,
    *,
    process_control: ProcessControl | None = None,
    report: RunReport | None = None,
) -> list[Any]:
    """Run ``worker`` over ``tasks`` under ``policy``, preserving order.

    With a ``process_control`` (the pool's respawn hook) execution starts
    on the process rung, and a task that repeatedly kills its worker, or
    keeps timing out, is demoted to the sequential rung and finishes in
    this process.  Without one, every task runs sequentially.  When
    ``report`` is given it is filled in place — the caller keeps it.
    """
    run_report = report if report is not None else RunReport()
    if not run_report.backend:
        run_report.backend = "sequential" if process_control is None else "process"
    started_run = time.perf_counter()
    states = [
        _TaskState(index=index, task=task, report=TaskReport(index=index))
        for index, task in enumerate(tasks)
    ]
    run_report.tasks.extend(state.report for state in states)
    try:
        if process_control is not None:
            _run_process_rung(states, worker, policy, process_control, run_report)
        _run_sequential_rung(
            [state for state in states if not state.done], worker, policy, run_report
        )
    finally:
        run_report.wall_seconds += time.perf_counter() - started_run
    return [state.result for state in states]


def _run_process_rung(
    states: list[_TaskState],
    worker: Callable[[Any], Any],
    policy: ExecutionPolicy,
    control: ProcessControl,
    report: RunReport,
) -> None:
    """Drive the process rung until every task is done or demoted.

    A state demoted by :func:`_settle` leaves ``pending`` on the next
    refresh and runs on the sequential rung afterwards.
    """

    def remaining() -> list[_TaskState]:
        return [state for state in states if not state.done and not state.demoted]

    pending = remaining()
    while pending:
        futures = _submit_round(pending, worker, control, report)
        interrupted = False
        for position, (state, future) in enumerate(futures):
            if state.done:
                continue
            started = time.perf_counter()
            try:
                value = future.result(timeout=policy.task_timeout)
            except BrokenProcessPool as error:
                _record(state, "process", "crash", started, error)
                _interrupt_round(
                    "worker process died", futures[position + 1 :], control, report
                )
                interrupted = True
            except FutureTimeoutError as error:
                future.cancel()
                _record(state, "process", "timeout", started, error)
                _interrupt_round(
                    "task timed out; reclaiming its worker",
                    futures[position + 1 :],
                    control,
                    report,
                )
                interrupted = True
            except ConfigurationError:
                _cancel_all(futures)
                raise
            except Exception as error:  # noqa: BLE001 - classified below
                _translate_pickling_error(error)
                _record(state, "process", "error", started, error)
                if not policy.retry_errors:
                    _cancel_all(futures)
                    raise _task_error(state, "process", "worker raised") from error
            else:
                _accept(state, value, policy, "process", started)
            if not state.done:
                _settle(state, policy, "process", report)
            if interrupted:
                break
        pending = remaining()


def _submit_round(
    pending: list[_TaskState],
    worker: Callable[[Any], Any],
    control: ProcessControl,
    report: RunReport,
) -> list[tuple[_TaskState, "Future[Any]"]]:
    """Submit every pending task once.

    A pool that is already broken at submission time is respawned and the
    round retried; the loop is bounded because a second breakage without any
    intervening submission means the respawn itself cannot produce a working
    pool, which surfaces as the final ``BrokenProcessPool``.
    """
    futures: list[tuple[_TaskState, "Future[Any]"]] = []
    for round_attempt in (0, 1):
        try:
            for state in pending[len(futures) :]:
                futures.append((state, control.submit(worker, state.task)))
            return futures
        except BrokenProcessPool:
            if round_attempt:
                raise
            for state, _future in futures:
                state.report.replays += 1
            futures.clear()
            report.respawns += 1
            remap = control.respawn("executor broken at submission")
            _apply_remap(remap, pending)
    return futures


def _interrupt_round(
    reason: str,
    rest: list[tuple[_TaskState, "Future[Any]"]],
    control: ProcessControl,
    report: RunReport,
) -> None:
    """Handle an executor loss mid-round: respawn it, remap stale manifests
    and book a replay (not an attempt) for every other in-flight task."""
    report.respawns += 1
    remap = control.respawn(reason)
    survivors = [state for state, _future in rest if not state.done]
    for state in survivors:
        state.report.replays += 1
    _apply_remap(remap, survivors)


def _cancel_all(futures: list[tuple[_TaskState, "Future[Any]"]]) -> None:
    for _state, future in futures:
        future.cancel()


def _apply_remap(
    remap: Callable[[Any], Any] | None, states: Sequence[_TaskState]
) -> None:
    if remap is None:
        return
    for state in states:
        state.task = remap(state.task)


def _run_sequential_rung(
    rung_states: list[_TaskState],
    worker: Callable[[Any], Any],
    policy: ExecutionPolicy,
    report: RunReport,
) -> None:
    """The ladder's floor: in-process execution with bounded retries.

    No timeout is enforced here — there is no worker left to reclaim — and a
    crash at this rung would be a crash of the orchestrator itself.
    """
    for state in rung_states:
        while not state.done:
            started = time.perf_counter()
            try:
                value = worker(state.task)
            except ConfigurationError:
                raise
            except Exception as error:  # noqa: BLE001 - classified below
                _record(state, "sequential", "error", started, error)
                if not policy.retry_errors:
                    raise _task_error(
                        state, "sequential", "worker raised"
                    ) from error
            else:
                _accept(state, value, policy, "sequential", started)
            if not state.done:
                _settle(state, policy, "sequential", report)
