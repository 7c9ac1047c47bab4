"""Process mode rejects a worker it cannot ship, before any worker starts.

:func:`~repro.engine.pool.require_picklable_worker` is the one guard: every
process fan-out (``run_many``, ``fan_out_shared``, a checkpointed run, a
bare ``WorkerPool.map``) reaches it before the pool starts its executor.
The shapes below are the ways a worker gets built: by name, by a factory,
as a bound method or a ``functools.partial``.  Each is classified by
whether it pickles, not by how it was written, so a factory that returns a
module-level function is accepted and one that returns a closure is not.
"""

from __future__ import annotations

import dataclasses
import functools
import threading

import pytest

from repro.datasets import Attribute, Dataset, Schema
from repro.engine.checkpoint import CheckpointStore
from repro.engine.pool import WorkerPool, require_picklable_worker
from repro.engine.runner import Execution, fan_out_shared, run_many
from repro.exceptions import ConfigurationError


def _double(task):
    return task * 2


def _scaled(task, scale):
    return task * scale


class _Scaler:
    def __init__(self, scale):
        self.scale = scale

    def apply(self, task):
        return task * self.scale


class _Guarded:
    """Holds a lock, so neither it nor its bound methods pickle."""

    def __init__(self):
        self.lock = threading.Lock()

    def apply(self, task):  # pragma: no cover - never reaches a worker
        return task


def _nested_def():
    def worker(task):  # pragma: no cover - never reaches a worker
        return task

    return worker


def _lambda(scale):
    return lambda task: task * scale  # pragma: no cover - never reaches a worker


def _nested_async_def():
    async def worker(task):  # pragma: no cover - never reaches a worker
        return task

    return worker


def _on_branch(fast):
    def worker(task):  # pragma: no cover - never reaches a worker
        return task

    if fast:
        return worker
    return _double


def _module_level():
    return _double


def _method_of_a_local_class():
    class Holder:
        def apply(self, task):  # pragma: no cover - never reaches a worker
            return task

    return Holder().apply


_MODULE_LAMBDA = lambda task: task  # the shape under test

#: shape -> (worker, whether process mode can ship it)
WORKERS = {
    "nested-def-from-a-factory": (_nested_def(), False),
    "lambda-from-a-factory": (_lambda(2), False),
    "nested-async-def-from-a-factory": (_nested_async_def(), False),
    "nested-def-on-the-taken-branch": (_on_branch(True), False),
    "method-of-a-local-class": (_method_of_a_local_class(), False),
    "bound-method-of-an-unpicklable-object": (_Guarded().apply, False),
    "partial-of-a-nested-def": (functools.partial(_nested_def()), False),
    "module-level-lambda": (_MODULE_LAMBDA, False),
    "module-level-function-on-the-other-branch": (_on_branch(False), True),
    "module-level-function-from-a-factory": (_module_level(), True),
    "bound-method-of-a-module-level-class": (_Scaler(3).apply, True),
    "partial-of-a-module-level-function": (functools.partial(_scaled, scale=4), True),
    "builtin": (abs, True),
}

ACCEPTED = sorted(shape for shape, (_, ships) in WORKERS.items() if ships)


@pytest.mark.parametrize("shape", sorted(WORKERS))
def test_each_worker_shape_is_classified_by_whether_it_pickles(shape):
    worker, ships = WORKERS[shape]
    if ships:
        require_picklable_worker(worker)
        return
    with pytest.raises(ConfigurationError, match="picklable worker") as excinfo:
        require_picklable_worker(worker)
    assert repr(worker) in str(excinfo.value)


@pytest.fixture(scope="module")
def pool():
    with WorkerPool(max_workers=1) as shared:
        yield shared


@pytest.mark.parametrize("shape", ACCEPTED)
def test_an_accepted_worker_runs_in_a_worker_process(pool, shape):
    worker, _ = WORKERS[shape]
    tasks = [-2, 1, 5]
    assert run_many(tasks, worker, Execution(mode="process", pool=pool)) == [
        worker(task) for task in tasks
    ]


def _dataset() -> Dataset:
    schema = Schema([Attribute.numeric("Age")])
    return Dataset(schema, [{"Age": 30 + n} for n in range(4)], name="workers")


def _entry_run_many(worker, execution, tmp_path):
    return run_many([1, 2], worker, execution)


def _entry_fan_out_shared(worker, execution, tmp_path):
    return fan_out_shared(_dataset(), lambda payload: [payload, payload], worker, execution)


def _entry_checkpointed(worker, execution, tmp_path):
    checkpointed = dataclasses.replace(execution, checkpoint=CheckpointStore(tmp_path))
    return run_many([1, 2], worker, checkpointed, checkpoint_keys=["a" * 64, "b" * 64])


def _entry_pool_map(worker, execution, tmp_path):
    return execution.pool.map(worker, [1, 2])


ENTRY_POINTS = {
    "run_many": _entry_run_many,
    "fan_out_shared": _entry_fan_out_shared,
    "checkpointed-run_many": _entry_checkpointed,
    "WorkerPool.map": _entry_pool_map,
}


@pytest.mark.parametrize("entry", sorted(ENTRY_POINTS))
def test_every_process_entry_point_rejects_before_a_worker_starts(entry, tmp_path):
    worker, _ = WORKERS["nested-def-from-a-factory"]
    with WorkerPool(max_workers=1) as fresh:
        execution = Execution(mode="process", pool=fresh)
        with pytest.raises(ConfigurationError, match="picklable worker"):
            ENTRY_POINTS[entry](worker, execution, tmp_path)
        assert fresh._executor is None, "a worker process started"
