"""A persistent process pool with shared-memory dataset fan-out.

SECRETA's backend "invokes one or more instances of the Anonymization
Module"; :class:`WorkerPool` is the process-backed version of that fleet.
It differs from the ad-hoc ``ProcessPoolExecutor`` the runner used to create
per call in two ways:

* **persistent workers** — the pool is spawned once and reused across sweeps
  and comparisons, so per-run fan-out cost is task submission, not process
  creation, and worker-side caches (attached shared datasets, memoized
  interpreters) survive between tasks;
* **shared datasets** — :meth:`WorkerPool.share` exports a dataset's columnar
  arrays into a shared-memory segment
  (:class:`~repro.columnar.shared.SharedDatasetExport`) and returns the small
  picklable manifest; tasks ship the manifest instead of the dataset, and
  workers attach zero-copy views (memoized per process).

The pool is also the engine's :class:`~repro.engine.resilience` process
backend: :meth:`map` submits per-task futures under the
:class:`~repro.engine.resilience.ExecutionPolicy` its caller passes
(bounded retries, task timeouts, a ``process → sequential`` degradation
ladder); the pool keeps no policy of its own.  :meth:`respawn` is the
crash-recovery hook — it replaces a broken executor, terminates hung
workers, re-exports any shared segment a crashed worker generation's
resource tracker destroyed, and hands back a task remapper so only
unfinished tasks are replayed.

Segment hygiene is crash-safe end to end: every export registers its segment
name in a sidecar file *before* creation (:mod:`repro.columnar.registry`),
constructing a pool reaps segments orphaned by hard-killed previous
processes, exports are evicted automatically when the last reference to
their dataset is dropped (``weakref.finalize``), and :meth:`close` (or
leaving the context manager) unlinks everything the pool still owns.
"""

from __future__ import annotations

import functools
import os
import pickle
import weakref
from concurrent.futures import Future, ProcessPoolExecutor
from typing import TYPE_CHECKING, Any, Callable, Iterable, Sequence, TypeVar

from repro.columnar.registry import reap_orphaned_segments
from repro.columnar.shared import SharedDatasetExport, SharedDatasetManifest
from repro.engine.resilience import DEFAULT_POLICY, ExecutionPolicy, RunReport, execute_tasks
from repro.exceptions import ConfigurationError, SecretaError

if TYPE_CHECKING:
    from repro.datasets.dataset import Dataset

TaskT = TypeVar("TaskT")
ResultT = TypeVar("ResultT")

#: Seconds to wait for a terminated worker process before abandoning it.
_TERMINATE_GRACE = 5.0


def validate_max_workers(max_workers: int | None) -> None:
    """Reject zero/negative worker counts instead of silently defaulting."""
    if max_workers is not None and max_workers < 1:
        raise ConfigurationError(
            f"max_workers must be a positive integer or None, got {max_workers!r}"
        )


def require_picklable_worker(worker: Callable[..., Any]) -> None:
    """Fail fast, with a clear message, on workers process mode cannot ship."""
    try:
        pickle.dumps(worker)
    except SecretaError:
        # A __reduce__ hook that already raised a typed error stays as-is;
        # wrapping it again would bury the specific failure.
        raise
    except Exception as error:
        raise ConfigurationError(
            f"mode='process' requires a picklable worker callable, but "
            f"{worker!r} cannot be pickled ({error}); define the worker as a "
            f"module-level function instead of a lambda, closure or bound "
            f"method of an unpicklable object"
        ) from error


def _evict_export(
    pool_ref: "weakref.ref[WorkerPool]", key: int, export: SharedDatasetExport
) -> None:
    """``weakref.finalize`` callback: the last dataset reference is gone, so
    the export has no possible future user — unlink its segment and drop the
    pool's cache entry.  Module-level so the finalizer cannot keep the pool
    alive through a closure."""
    pool = pool_ref()
    if pool is not None:
        pool._exports.pop(key, None)
    export.close()


def _remap_task(mapping: dict[str, SharedDatasetManifest], task: Any) -> Any:
    """Swap stale shared-dataset manifests inside a task payload.

    Tasks are either a manifest, a tuple carrying one, or plain values; the
    remapper rewrites exactly the manifest slots whose segment went stale
    and leaves everything else identical — replayed tasks must stay
    byte-for-byte equivalent apart from the new segment name.
    """
    if isinstance(task, SharedDatasetManifest):
        return mapping.get(task.segment, task)
    if isinstance(task, tuple):
        return tuple(_remap_task(mapping, element) for element in task)
    return task


class WorkerPool:
    """A reusable process pool plus the shared-memory exports it owns.

    Parameters
    ----------
    max_workers:
        Pool size; defaults to ``os.cpu_count()``.  Zero or negative values
        raise :class:`~repro.exceptions.ConfigurationError`.
    mp_context:
        Optional ``multiprocessing`` context (e.g. ``get_context("spawn")``);
        defaults to the platform's default start method.
    """

    def __init__(
        self,
        max_workers: int | None = None,
        mp_context: Any | None = None,
    ) -> None:
        validate_max_workers(max_workers)
        self._max_workers = max_workers or (os.cpu_count() or 1)
        self._mp_context = mp_context
        self._executor: ProcessPoolExecutor | None = None
        #: id(dataset) -> (dataset weakref, export, eviction finalizer).  The
        #: weak reference lets a dropped dataset free its segment immediately
        #: (via the finalizer) instead of pinning arrays for the pool's life.
        self._exports: dict[
            int,
            tuple[
                "weakref.ref[Any]", SharedDatasetExport, "weakref.finalize"
            ],
        ] = {}
        self._closed = False
        #: Segments orphaned by dead processes, unlinked at construction.
        self.reaped_at_startup: tuple[str, ...] = tuple(reap_orphaned_segments())

    # -- introspection -------------------------------------------------------
    @property
    def max_workers(self) -> int:
        return self._max_workers

    @property
    def closed(self) -> bool:
        return self._closed

    def segment_names(self) -> list[str]:
        """Names of the live shared-memory segments this pool owns."""
        return [export.segment_name for _, export, _ in self._exports.values()]

    # -- sharing -------------------------------------------------------------
    def share(self, dataset: "Dataset") -> SharedDatasetManifest:
        """Export ``dataset`` (once) and return its picklable manifest.

        Repeated calls with the same, unmutated dataset reuse the export; a
        mutated dataset (its columnar cache was invalidated) is re-exported
        and the stale segment unlinked immediately.  The pool holds the
        dataset only weakly: dropping the last outside reference evicts the
        export and unlinks its segment right away.
        """
        self._require_open()
        key = id(dataset)
        entry = self._exports.get(key)
        if entry is not None:
            held_ref, export, finalizer = entry
            if (
                held_ref() is dataset
                and export.matches(dataset)
                and export.segment_alive()
            ):
                return export.manifest
            finalizer.detach()
            export.close()
            self._exports.pop(key, None)
        export = SharedDatasetExport(dataset)
        finalizer = weakref.finalize(
            dataset, _evict_export, weakref.ref(self), key, export
        )
        finalizer.atexit = False  # pool close / export finalizer covers exit
        self._exports[key] = (weakref.ref(dataset), export, finalizer)
        return export.manifest

    # -- the resilience engine's ProcessControl hooks ------------------------
    def submit(self, fn: Callable[..., Any], *args: Any) -> "Future[Any]":
        """Submit one call to the pool's executor (spawned lazily)."""
        self._require_open()
        if self._executor is None:
            self._executor = ProcessPoolExecutor(
                max_workers=self._max_workers, mp_context=self._mp_context
            )
        return self._executor.submit(fn, *args)

    def respawn(self, reason: str) -> Callable[[Any], Any] | None:
        """Replace the executor after a crash, hang or breakage.

        Tears the current executor down without waiting (terminating any
        still-alive worker, which reclaims hung processes), re-exports every
        shared dataset whose segment was destroyed by the dying worker
        generation, and returns a remapper that rewrites stale manifests
        inside unfinished task payloads (``None`` when every segment
        survived).  The next :meth:`submit` spawns the replacement executor.
        """
        self._require_open()
        self._shutdown_executor()
        mapping = self._refresh_exports()
        if not mapping:
            return None
        return functools.partial(_remap_task, mapping)

    def _shutdown_executor(self) -> None:
        """Drop the executor and make sure its workers are actually gone."""
        executor, self._executor = self._executor, None
        if executor is None:
            return
        # A broken pool's processes are usually dead already; a *hung* worker
        # is not — terminate the survivors so the machine gets its CPUs back.
        processes = list(getattr(executor, "_processes", {}).values())
        executor.shutdown(wait=False, cancel_futures=True)
        for process in processes:
            try:
                if process.is_alive():
                    process.terminate()
            except (OSError, ValueError):  # pragma: no cover - already gone
                continue
        for process in processes:
            try:
                process.join(timeout=_TERMINATE_GRACE)
            except (OSError, ValueError, AssertionError):  # pragma: no cover
                continue

    def _refresh_exports(self) -> dict[str, SharedDatasetManifest]:
        """Re-export datasets whose shared segment no longer exists.

        Returns ``{stale segment name: replacement manifest}``.  Exports
        whose dataset has been garbage-collected are simply dropped — no
        unfinished task can still reference them except through a manifest,
        and such a task would have failed its attempt already.
        """
        mapping: dict[str, SharedDatasetManifest] = {}
        for key, (held_ref, export, finalizer) in list(self._exports.items()):
            if export.segment_alive():
                continue
            dataset = held_ref()
            finalizer.detach()
            export.close()
            self._exports.pop(key, None)
            if dataset is None:
                continue
            stale_name = export.segment_name
            mapping[stale_name] = self.share(dataset)
        return mapping

    # -- execution -----------------------------------------------------------
    def map(
        self,
        worker: Callable[[TaskT], ResultT],
        tasks: Sequence[TaskT] | Iterable[TaskT],
        policy: ExecutionPolicy = DEFAULT_POLICY,
        report: RunReport | None = None,
    ) -> list[ResultT]:
        """Apply ``worker`` to every task, preserving order, fault-tolerantly.

        Each task is submitted as its own future and executed under
        ``policy``: bounded retries, optional per-task timeouts, executor
        respawn on crashes, and demotion to sequential execution in this
        process for tasks that repeatedly kill their workers or time out.
        ``report``, when given, is filled in place with the full per-task
        attempt history.
        """
        self._require_open()
        require_picklable_worker(worker)
        tasks = list(tasks)
        if not tasks:
            return []
        return execute_tasks(tasks, worker, policy, process_control=self, report=report)

    # -- lifecycle -----------------------------------------------------------
    def close(self) -> None:
        """Shut the workers down and unlink every owned segment (idempotent)."""
        if self._closed:
            return
        self._closed = True
        executor, self._executor = self._executor, None
        try:
            if executor is not None:
                executor.shutdown(wait=True)
        finally:
            exports, self._exports = self._exports, {}
            for _, export, finalizer in exports.values():
                finalizer.detach()
                export.close()

    def _require_open(self) -> None:
        if self._closed:
            raise ConfigurationError("the worker pool has been closed")

    def __enter__(self) -> "WorkerPool":
        return self

    def __exit__(self, *exc_info: object) -> None:
        self.close()

    def __repr__(self) -> str:
        state = "closed" if self._closed else "open"
        return (
            f"WorkerPool(max_workers={self._max_workers}, "
            f"exports={len(self._exports)}, {state})"
        )

