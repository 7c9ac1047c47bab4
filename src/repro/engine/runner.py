"""Execution of multiple anonymization requests: sequential or processes.

SECRETA's backend "invokes one or more instances (threads) of the
Anonymization Module" and collects their results.  How those instances run
is one frozen :class:`Execution` value, passed unchanged from ``Session``
through the experiment and comparator down to :func:`run_many`.  Its
``mode`` is one of:

* ``"sequential"`` — the default: one task after another in this process,
* ``"process"`` — a process pool that actually fans CPU-bound anonymization
  out across cores.  The worker callable and every task/result must be
  picklable (module-level functions, not closures or lambdas).  Large
  datasets should not travel inside the tasks: :func:`fan_out_shared`
  exports them once to shared memory and ships the manifest instead (see
  ``docs/parallelism.md``).

There is no thread mode: the anonymizers hold the GIL, so a thread pool
ran slower than sequential mode (``docs/parallelism.md``).

The rest of the value says where and how: ``max_workers`` caps the pool,
``pool`` supplies a persistent :class:`~repro.engine.pool.WorkerPool`,
``policy`` the :class:`~repro.engine.resilience.ExecutionPolicy` and
``checkpoint`` a durable :class:`~repro.engine.checkpoint.CheckpointStore`.
Both modes run one path, :func:`~repro.engine.resilience.execute_tasks`,
so every run keeps a :class:`~repro.engine.resilience.RunReport` and a
failing worker raises the same :class:`~repro.exceptions.TaskError`.
"""

from __future__ import annotations

import dataclasses
import os
from contextlib import contextmanager
from dataclasses import dataclass
from typing import TYPE_CHECKING, Any, Callable, Iterable, Iterator, Literal, Sequence, TypeVar

from repro.engine.checkpoint import CheckpointStore, run_checkpointed
from repro.engine.pool import WorkerPool, validate_max_workers
from repro.engine.resilience import DEFAULT_POLICY, ExecutionPolicy, RunReport, execute_tasks
from repro.exceptions import ConfigurationError

if TYPE_CHECKING:
    from repro.datasets.dataset import Dataset

TaskT = TypeVar("TaskT")
ResultT = TypeVar("ResultT")

ExecutionMode = Literal["sequential", "process"]

EXECUTION_MODES: tuple[ExecutionMode, ...] = ("sequential", "process")


@dataclass(frozen=True)
class Execution:
    """How a batch of tasks runs: one value for every layer of the engine.

    ``mode`` selects the backend (see the module docstring).  Process mode
    defaults to one worker per task capped at the CPU count;
    ``max_workers`` must be positive (or ``None`` for that default).

    ``pool`` supplies a persistent :class:`~repro.engine.pool.WorkerPool`
    for process mode; without one, an ephemeral pool is created per run.
    Sequential mode ignores it, and its own worker count takes precedence
    over ``max_workers``.

    ``policy`` selects the :class:`~repro.engine.resilience.ExecutionPolicy`
    every run executes under (:data:`~repro.engine.resilience.DEFAULT_POLICY`
    without one), in either mode: per-task attempts, bounded retries, and on
    the process backend crash recovery and demotion to this process.

    ``checkpoint`` threads a durable
    :class:`~repro.engine.checkpoint.CheckpointStore` through the run:
    completed tasks are persisted the moment they finish, and a re-run
    serves stored cells instead of recomputing.

    The value holds live resources (the pool), so it stays in the
    orchestrating process: workers receive the picklable store inside the
    checkpoint's storing worker, never an ``Execution``.
    """

    mode: ExecutionMode = "sequential"
    max_workers: int | None = None
    pool: WorkerPool | None = None
    policy: ExecutionPolicy | None = None
    checkpoint: CheckpointStore | None = None

    def __post_init__(self) -> None:
        if self.mode not in EXECUTION_MODES:
            raise ConfigurationError(
                f"unknown execution mode {self.mode!r}; expected one of {EXECUTION_MODES}"
            )
        validate_max_workers(self.max_workers)

    def fans_out(self, task_count: int) -> bool:
        """Whether ``task_count`` tasks fan out to worker processes."""
        return self.mode == "process" and task_count > 1


@contextmanager
def _process_pool(execution: Execution, task_count: int) -> Iterator[WorkerPool]:
    """The execution's persistent pool, or an ephemeral one for one run.

    The ephemeral pool is sized to the task count (capped at the CPU count,
    or at ``max_workers``), spawns its executor lazily and is closed, with
    every segment it exported, on exit.
    """
    if execution.pool is not None:
        yield execution.pool
        return
    workers = execution.max_workers or min(task_count, os.cpu_count() or 1)
    with WorkerPool(max_workers=workers) as ephemeral:
        yield ephemeral


def run_many(
    tasks: Sequence[TaskT] | Iterable[TaskT],
    worker: Callable[[TaskT], ResultT],
    execution: Execution = Execution(),
    report: RunReport | None = None,
    checkpoint_keys: Sequence[str] | None = None,
) -> list[ResultT]:
    """Apply ``worker`` to every task under ``execution``, preserving order.

    Every batch runs through :func:`~repro.engine.resilience.execute_tasks`
    under the execution's policy: on the process backend when the batch
    fans out, in this process otherwise.  A failing worker therefore raises
    the same :class:`~repro.exceptions.TaskError` in either mode.
    ``report``, when given, is filled in place with the per-task attempt
    history.  With a checkpoint store every task needs a content-addressed
    key in ``checkpoint_keys`` (see
    :func:`~repro.engine.checkpoint.run_checkpointed`).
    """
    tasks = list(tasks)
    if not tasks:
        return []
    if execution.checkpoint is not None:
        return run_checkpointed(tasks, worker, execution, checkpoint_keys, report=report)
    policy = execution.policy or DEFAULT_POLICY
    if not execution.fans_out(len(tasks)):
        return execute_tasks(tasks, worker, policy, report=report)
    with _process_pool(execution, len(tasks)) as pool:
        return pool.map(worker, tasks, policy, report)


def fan_out_shared(
    dataset: "Dataset",
    make_tasks: Callable[[Any], Sequence[Any]],
    worker: Callable[..., Any],
    execution: Execution = Execution(),
    report: RunReport | None = None,
    checkpoint_keys: Sequence[str] | None = None,
) -> list[Any]:
    """Run ``worker`` over ``make_tasks(payload)``: the engine's one dispatch.

    The experiment and the comparator both go through here.
    ``make_tasks`` builds the tasks around ``payload``.  When ``execution``
    fans the tasks out to processes, ``payload`` is the manifest of a
    one-time shared-memory export of ``dataset``, owned by the pool the run
    uses: the export is cached on a persistent pool, and an ephemeral pool
    unlinks it before returning.  Every other run gets ``dataset`` itself
    and goes through :func:`run_many` in this process.
    """
    tasks = make_tasks(dataset)
    if not execution.fans_out(len(tasks)):
        return run_many(tasks, worker, execution, report, checkpoint_keys)
    # The pool (rather than a bare export) owns the segment so the
    # crash-recovery path can re-export it.
    with _process_pool(execution, len(tasks)) as pool:
        return run_many(
            make_tasks(pool.share(dataset)),
            worker,
            dataclasses.replace(execution, pool=pool),
            report,
            checkpoint_keys,
        )
