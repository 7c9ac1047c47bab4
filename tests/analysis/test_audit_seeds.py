"""The analyzer yield audit, kept as regression fixtures.

Each fixture is one bug shape from the audit recorded in the PR 20 entry of
CHANGES.md, written at the repository path where it was seeded and linted
against the repository's own invariant manifest.  Every shape a rule still
owns must still be caught by that rule, so a manifest edit that drops a
module from a rule's scope, or a rule change that stops matching the shape,
fails here.  The fixture tree holds only the seeded module, so the check
looks for the finding on the seeded symbol (REP003 also reports the
manifest's references into modules the fixture leaves out).

Three shapes of the audit moved to narrower checks with the same reach: a
local-function or factory-built process worker raises ``ConfigurationError``
at fan-out (``WORKER_SEEDS`` below, and
``tests/engine/test_picklable_worker.py``), and a ``while True`` /
``time.sleep`` retry in the engine fails
``tests/engine/test_engine_never_waits.py``.
"""

from __future__ import annotations

import textwrap

import pytest

from repro.analysis.manifest import InvariantManifest
from repro.exceptions import ConfigurationError

MANIFEST = InvariantManifest.load()

SEEDS = {
    "segment-with-no-unlink": (
        "REP001",
        "_seeded_leak",
        "src/repro/columnar/shared.py",
        """
        from multiprocessing import shared_memory

        def _seeded_leak(size):
            segment = shared_memory.SharedMemory(create=True, size=size)
            segment.buf[0] = 1
            return segment.name
        """,
    ),
    "record-state-write-outside-the-mutators": (
        "REP002",
        "_seeded_reset",
        "src/repro/algorithms/relational/cluster.py",
        """
        def _seeded_reset(dataset):
            dataset._records = []
        """,
    ),
    "public-kernel-without-a-parity-entry": (
        "REP003",
        "seeded_kernel",
        "src/repro/columnar/bitset.py",
        """
        def seeded_kernel(matrix):
            return matrix.sum()
        """,
    ),
    "per-record-loop-in-a-hot-module": (
        "REP004",
        "_seeded_scan",
        "src/repro/metrics/privacy_checks.py",
        """
        def _seeded_scan(dataset):
            total = 0
            for record in dataset.records:
                total += 1
            return total
        """,
    ),
    "broad-except-that-swallows": (
        "REP005",
        "_seeded_swallow",
        "src/repro/engine/_seeded.py",
        """
        def _seeded_swallow(values):
            try:
                return sum(values)
            except Exception:
                return 0
        """,
    ),
    "runtime-assert": (
        "REP005",
        "_seeded_assert",
        "src/repro/engine/_seeded.py",
        """
        def _seeded_assert(k):
            assert k > 0
            return k
        """,
    ),
    "lambda-worker-in-process-mode": (
        "REP006",
        "_seeded_lambda",
        "src/repro/engine/_seeded.py",
        """
        from repro.engine import Execution, run_many

        def _seeded_lambda(tasks):
            return run_many(tasks, lambda task: task, Execution(mode="process"))
        """,
    ),
    "bare-open-in-the-checkpoint-store": (
        "REP008",
        "_seeded_dump",
        "src/repro/engine/checkpoint.py",
        """
        def _seeded_dump(path, data):
            with open(path, "wb") as handle:
                handle.write(data)
        """,
    ),
}


@pytest.mark.parametrize("shape", sorted(SEEDS))
def test_seeded_shape_is_caught_by_its_rule(harness, shape):
    code, symbol, relpath, source = SEEDS[shape]
    findings = harness.findings(relpath, source, manifest=MANIFEST, select=[code])
    caught = {(f.code, f.symbol) for f in findings if f.is_new}
    assert (code, symbol) in caught, f"{code} no longer catches {shape}"


#: The audit's process-worker shapes, now rejected when the fan-out starts.
WORKER_SEEDS = {
    "local-function-worker-in-process-mode": (
        "_seeded_local",
        """
        from repro.engine import Execution, run_many

        def _seeded_local(tasks):
            def worker(task):
                return task
            return run_many(tasks, worker, Execution(mode="process"))
        """,
    ),
    "factory-built-worker-in-process-mode": (
        "_seeded_fanout",
        """
        from repro.engine import Execution, run_many

        def _seeded_factory():
            def worker(task):
                return task
            return worker

        def _seeded_fanout(tasks):
            return run_many(tasks, _seeded_factory(), Execution(mode="process"))
        """,
    ),
}


@pytest.mark.parametrize("shape", sorted(WORKER_SEEDS))
def test_seeded_worker_shape_is_rejected_at_fan_out(shape):
    symbol, source = WORKER_SEEDS[shape]
    namespace: dict = {}
    exec(compile(textwrap.dedent(source), f"<{shape}>", "exec"), namespace)
    with pytest.raises(ConfigurationError, match="picklable worker"):
        namespace[symbol]([1, 2])
