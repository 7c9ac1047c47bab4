"""Fault injection for the chaos suites, from outside the engine.

The engine carries no fault hooks.  The chaos suites break workers and
stores through seams the engine already has, and check its observable
guarantees: results byte-identical to a sequential run, no leaked
shared-memory segment, and a ``RunReport`` that accounts for every recovery.

* :class:`ChaosPool` is a :class:`~repro.engine.pool.WorkerPool` whose
  ``submit`` wraps chosen tasks' calls in :func:`_faulted`, which crashes
  (``os._exit(1)``), SIGKILLs itself (exit 137), hangs or raises inside the
  worker process.  Every process-rung attempt passes through ``submit``; the
  sequential rung calls the worker directly, so a task demoted there runs
  clean.
* :class:`KillingStore` is a :class:`~repro.engine.checkpoint.CheckpointStore`
  that SIGKILLs its own process right after its N-th cell write.

Errors on the sequential rung come from the test's own worker, and corrupt
results from the policy's ``validate_result``.  A torn cell is an
``os.truncate`` of a stored cell file.
"""

from __future__ import annotations

import os
import shutil
import signal
import tempfile
import time
from concurrent.futures import Future
from dataclasses import dataclass
from typing import Any, Callable, Iterable, Mapping

from repro.engine.checkpoint import CheckpointStore
from repro.engine.pool import WorkerPool
from repro.engine.resilience import DEFAULT_POLICY, ExecutionPolicy, RunReport

#: What a fault does to the worker process that runs the task.
KINDS = ("crash", "exit137", "hang", "error")


class InjectedFault(Exception):
    """Raised by an ``"error"`` fault."""


def _kill_self() -> None:
    """End this process the way the OOM-killer does, skipping every finalizer."""
    os.kill(os.getpid(), signal.SIGKILL)


def _faulted(
    worker: "_Indexed",
    indexed: tuple[int, Any],
    kind: str,
    marker: str | None,
    hang_seconds: float,
) -> Any:
    """Run ``worker(indexed)`` after the fault ``kind``, in the worker process.

    A *once* fault passes a ``marker`` path and fires only in the execution
    that creates it; an *every* fault (``marker=None``) fires each time.
    """
    if marker is not None:
        try:
            os.close(os.open(marker, os.O_CREAT | os.O_EXCL | os.O_WRONLY))
        except FileExistsError:
            return worker(indexed)
    if kind == "crash":
        os._exit(1)
    if kind == "exit137":
        _kill_self()
    if kind == "hang":
        time.sleep(hang_seconds)
    if kind == "error":
        raise InjectedFault(f"injected fault: task {indexed[0]} raised")
    return worker(indexed)


@dataclass(frozen=True)
class _Indexed:
    """Runs the caller's worker on ``(index, task)``: the index rides along
    so :meth:`ChaosPool.submit` can tell which task it is submitting."""

    worker: Callable[[Any], Any]

    def __call__(self, indexed: tuple[int, Any]) -> Any:
        return self.worker(indexed[1])


class ChaosPool(WorkerPool):
    """A worker pool that breaks chosen tasks on the process rung.

    ``once`` and ``every`` map a task index (its position in the tasks given
    to :meth:`map`) to one of :data:`KINDS`.  A *once* fault fires at the
    task's first execution in a worker, however often it was submitted
    before; an *every* fault fires on each process-rung attempt.  A hang
    sleeps ``hang_seconds``: pick it well above the policy's
    ``task_timeout``.  Other keyword arguments go to
    :class:`~repro.engine.pool.WorkerPool`.
    """

    def __init__(
        self,
        once: Mapping[int, str] | None = None,
        every: Mapping[int, str] | None = None,
        hang_seconds: float = 60.0,
        **pool_kwargs: Any,
    ) -> None:
        once, every = once or {}, every or {}
        unknown = {*once.values(), *every.values()} - set(KINDS)
        if unknown or set(once) & set(every):
            raise ValueError(f"bad faults once={once!r} every={every!r}")
        super().__init__(**pool_kwargs)
        self._markers = tempfile.mkdtemp(prefix="chaos-")
        self._faults = {
            **{index: (kind, True) for index, kind in once.items()},
            **{index: (kind, False) for index, kind in every.items()},
        }
        self._hang_seconds = hang_seconds

    def map(
        self,
        worker: Callable[[Any], Any],
        tasks: Iterable[Any],
        policy: ExecutionPolicy = DEFAULT_POLICY,
        report: RunReport | None = None,
    ) -> list[Any]:
        return super().map(_Indexed(worker), list(enumerate(tasks)), policy, report)

    def submit(self, fn: Callable[..., Any], *args: Any) -> "Future[Any]":
        (indexed,) = args
        fault = self._faults.get(indexed[0])
        if fault is None:
            return super().submit(fn, indexed)
        kind, once = fault
        marker = os.path.join(self._markers, str(indexed[0])) if once else None
        return super().submit(_faulted, fn, indexed, kind, marker, self._hang_seconds)

    def close(self) -> None:
        super().close()
        shutil.rmtree(self._markers, ignore_errors=True)


class KillingStore(CheckpointStore):
    """A checkpoint store that SIGKILLs its process right after its
    ``kill_after``-th cell write, in whichever process performs it.

    Use it on the sequential path in a sacrificial subprocess: it is not
    meant to be pickled into workers.
    """

    def __init__(self, directory: str | os.PathLike[str], kill_after: int) -> None:
        super().__init__(directory)
        self.kill_after = kill_after

    def store(self, key: str, value: Any) -> Any:
        path = super().store(key, value)
        if self.stores == self.kill_after:
            _kill_self()
        return path
