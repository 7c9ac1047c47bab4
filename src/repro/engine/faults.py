"""Deterministic fault injection for the execution engine.

The chaos suite (``tests/engine/test_mode_equivalence.py`` and
``tests/engine/test_resilience.py``) does not *assert* that the engine is
fault tolerant — it *makes workers fail* and checks the observable
guarantees: results stay byte-identical to a sequential run, no
shared-memory segment survives, and the :class:`~repro.engine.resilience.RunReport`
records every recovery step.  This module supplies the failure half of that
contract: a picklable :class:`FaultPlan` that tells a worker to crash, hang,
die with exit code 137, raise, or return a corrupt result at chosen
``(task index, attempt)`` coordinates.

A plan is a pure function of its coordinates — no global state, no
randomness — so a faulted run is exactly reproducible.  Hard faults
(``crash``, ``exit137``, ``hang``) only fire inside a genuine worker
process (the plan remembers the orchestrating process's pid): when a task
has been degraded to the sequential rung of the ladder, the same plan lets
it through, modelling a task that kills *worker processes* but is otherwise
computable.  Soft faults (``error``, ``corrupt``) fire on every
backend.
"""

from __future__ import annotations

import os
import signal
import time
from dataclasses import dataclass, field
from typing import Any, Callable

from repro.exceptions import ConfigurationError, ExecutionError

#: The failure modes a plan can inject.
FAULT_KINDS = ("crash", "exit137", "hang", "error", "corrupt")

#: Kinds that terminate or stall the worker process itself; these only fire
#: when the executing pid differs from the plan's ``parent_pid``.
HARD_KINDS = frozenset({"crash", "exit137", "hang"})


class InjectedFault(ExecutionError):
    """The error raised by a ``kind="error"`` fault (and by hard faults
    demoted to an exception when no process boundary is available)."""


@dataclass(frozen=True)
class Corrupted:
    """Marker wrapper a ``kind="corrupt"`` fault returns instead of the real
    result.  The resilience engine treats any :class:`Corrupted` result as a
    failed attempt, so retries must launder it away before results reach the
    caller."""

    payload: Any = None


@dataclass(frozen=True)
class Fault:
    """One injection point: fail task ``task_index`` on attempt ``attempt``.

    ``attempt`` counts every attempt of the task across backends, starting
    at 0; ``attempt=-1`` fires on every attempt (a task that *always* kills
    its worker — the degradation-ladder scenario).
    """

    task_index: int
    attempt: int
    kind: str

    def __post_init__(self) -> None:
        if self.kind not in FAULT_KINDS:
            raise ConfigurationError(
                f"unknown fault kind {self.kind!r}; expected one of {FAULT_KINDS}"
            )
        if self.task_index < 0:
            raise ConfigurationError("fault task_index must be >= 0")
        if self.attempt < -1:
            raise ConfigurationError(
                "fault attempt must be >= 0, or -1 for every attempt"
            )

    def matches(self, task_index: int, attempt: int) -> bool:
        return self.task_index == task_index and self.attempt in (-1, attempt)


@dataclass(frozen=True)
class FaultPlan:
    """A picklable schedule of injected faults, keyed by (task, attempt).

    ``parent_pid`` is captured at construction (in the orchestrating
    process) so hard faults can tell worker processes apart from in-parent
    backends.  ``hang_seconds`` is how long a ``hang`` fault sleeps — pick
    it well above the policy's ``task_timeout`` so the timeout path, not the
    sleep, decides the outcome.
    """

    faults: tuple[Fault, ...] = ()
    parent_pid: int = field(default_factory=os.getpid)
    hang_seconds: float = 60.0

    @classmethod
    def build(cls, *faults: tuple[int, int, str], hang_seconds: float = 60.0) -> "FaultPlan":
        """Shorthand: ``FaultPlan.build((task, attempt, kind), ...)``."""
        return cls(
            faults=tuple(Fault(*spec) for spec in faults),
            hang_seconds=hang_seconds,
        )

    def kind_for(self, task_index: int, attempt: int) -> str | None:
        """The fault kind scheduled at these coordinates, if any."""
        for fault in self.faults:
            if fault.matches(task_index, attempt):
                return fault.kind
        return None


@dataclass(frozen=True)
class CheckpointFaults:
    """Deterministic fault points for the durable checkpoint store.

    Where :class:`FaultPlan` breaks *workers*, this breaks the *store*: the
    chaos suite uses it to prove that a sweep killed immediately after its
    N-th persisted cell resumes correctly, and that a torn (truncated)
    record is detected and recomputed rather than served.

    ``kill_after_store=n`` kills the process (SIGKILL semantics, skipping
    all finalizers) right after the n-th successful cell write of this store
    instance.  Unlike :class:`FaultPlan` hard faults it fires in *any*
    process, including the orchestrator — sequential-mode chaos tests run
    the sweep in a sacrificial subprocess for exactly this reason.

    ``truncate_after_store=n`` truncates the n-th written cell file to
    ``truncate_to`` bytes right after its atomic rename — a torn write as an
    on-disk fact, without racing a real crash.  Counts start at 1 and are
    per store instance (per process: a store that crosses a process
    boundary re-counts from zero, which keeps worker-side chaos runs
    deterministic per worker).
    """

    kill_after_store: int | None = None
    truncate_after_store: int | None = None
    truncate_to: int = 7

    def __post_init__(self) -> None:
        for name in ("kill_after_store", "truncate_after_store"):
            count = getattr(self, name)
            if count is not None and count < 1:
                raise ConfigurationError(f"{name} must be >= 1 when set")
        if self.truncate_to < 0:
            raise ConfigurationError("truncate_to must be >= 0")

    def after_store(self, count: int, path: "os.PathLike[str] | str") -> None:
        """The store calls this after its ``count``-th successful write."""
        if self.truncate_after_store == count:
            os.truncate(path, self.truncate_to)
        if self.kill_after_store == count:
            _die(137)


def _die(exit_code: int) -> None:
    """Terminate the current process the way a real fault would: for 137,
    the SIGKILL a cgroup OOM-killer delivers; otherwise a hard ``_exit``
    that skips every finalizer (so segments/locks are genuinely orphaned)."""
    if exit_code == 137 and hasattr(signal, "SIGKILL"):
        os.kill(os.getpid(), signal.SIGKILL)
    os._exit(exit_code)


def faulted_call(
    worker: Callable[[Any], Any],
    task: Any,
    task_index: int,
    attempt: int,
    plan: FaultPlan,
) -> Any:
    """Run ``worker(task)`` under ``plan`` — the submission wrapper.

    Module-level (and shipping only picklable arguments) so process mode
    can pickle the wrapped call under spawn exactly like a plain worker.
    """
    kind = plan.kind_for(task_index, attempt)
    if kind is None:
        return worker(task)
    in_worker_process = os.getpid() != plan.parent_pid
    if kind in HARD_KINDS and not in_worker_process:
        # Degraded to the sequential rung: a worker-killing fault has no
        # process to kill, which is exactly why the ladder exists.
        return worker(task)
    if kind == "crash":
        _die(1)
    elif kind == "exit137":
        _die(137)
    elif kind == "hang":
        # repro: allow[REP007] -- the injected hang IS the fault under test, not a retry backoff; the policy's task_timeout reclaims the worker
        time.sleep(plan.hang_seconds)
        return worker(task)
    elif kind == "error":
        raise InjectedFault(
            f"injected fault: task {task_index} attempt {attempt} raised"
        )
    return Corrupted(payload=worker(task))
