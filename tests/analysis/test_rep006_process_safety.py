"""REP006: process-safety fixtures."""

from __future__ import annotations

import ast
import textwrap

import pytest

from lint_harness import new_codes

from repro.analysis.manifest import InvariantManifest, WorkerCall
from repro.analysis.rules.rep006_process_safety import _returns_nested_function

MANIFEST = InvariantManifest(
    spec_classes=("src/pkg/specs.py::TaskSpec",),
    forbidden_field_types=("Lock", "SharedMemory", "TextIO", "Execution"),
    worker_calls={
        "run_many": WorkerCall(arg=1, process_only=False),
        "fan_out_shared": WorkerCall(arg=2, process_only=False),
        "pool.map": WorkerCall(arg=0),
    },
)

LOCK_FIELD = """
    import threading
    from dataclasses import dataclass

    @dataclass
    class TaskSpec:
        name: str
        guard: threading.Lock
"""

EXECUTION_FIELD = """
    from dataclasses import dataclass

    @dataclass
    class TaskSpec:
        name: str
        execution: "Execution"
"""

LAMBDA_DEFAULT = """
    from dataclasses import dataclass, field

    @dataclass
    class TaskSpec:
        name: str
        factory: object = field(default=lambda: 0)
"""

CLEAN_SPEC = """
    from dataclasses import dataclass

    @dataclass
    class TaskSpec:
        name: str
        segment_name: str
        k: int
"""

LAMBDA_TO_FAN_OUT = """
    def launch(dataset, execution):
        return fan_out_shared(dataset, make_tasks, lambda task: task, execution)
"""

LAMBDA_TO_FAN_OUT_DEFAULT = """
    def launch(dataset):
        return fan_out_shared(dataset, make_tasks, lambda task: task, Execution())
"""

LOCAL_WORKER_TO_POOL_MAP = """
    def launch(pool, tasks):
        def helper(task):
            return task

        return pool.map(helper, tasks)
"""

LAMBDA_TO_RUN_MANY_DEFAULT = """
    def launch(tasks):
        return run_many(tasks, lambda task: task)
"""

LAMBDA_TO_RUN_MANY_PROCESS = """
    def launch(tasks):
        return run_many(tasks, lambda task: task, Execution(mode="process"))
"""

LAMBDA_TO_RUN_MANY_SEQUENTIAL = """
    def launch(tasks):
        return run_many(tasks, lambda task: task, execution=Execution("sequential"))
"""

LAMBDA_TO_RUN_MANY_DYNAMIC = """
    def launch(tasks, execution):
        return run_many(tasks, lambda task: task, execution)
"""

LAMBDA_TO_RUN_MANY_DYNAMIC_MODE = """
    def launch(tasks, mode):
        return run_many(tasks, lambda task: task, execution=Execution(mode=mode))
"""

MODULE_LEVEL_WORKER = """
    def worker(task):
        return task

    def launch(dataset, execution):
        return fan_out_shared(dataset, make_tasks, worker, execution)
"""

NESTED_WORKER_VIA_FACTORY = """
    def make_worker(scale):
        def worker(task):
            return task * scale

        return worker

    def launch(dataset, execution):
        return fan_out_shared(dataset, make_tasks, make_worker(2), execution)
"""

MODULE_LEVEL_WORKER_VIA_FACTORY = """
    def worker(task):
        return task

    def make_worker(scale):
        return worker

    def launch(dataset, execution):
        return fan_out_shared(dataset, make_tasks, make_worker(2), execution)
"""

FACTORY_MODULE = """
    def make_worker(scale):
        def worker(task):
            return task * scale

        return worker
"""

LAUNCH_WITH_IMPORTED_FACTORY = """
    from pkg.factories import make_worker

    def launch(dataset, execution):
        return fan_out_shared(dataset, make_tasks, make_worker(2), execution)
"""

NESTED_WORKER_PASSED_BY_NAME = """
    def launch(dataset, execution):
        def worker(task):
            return task

        return fan_out_shared(dataset, make_tasks, worker, execution)
"""


class TestRep006SpecClasses:
    def test_lock_field_is_flagged(self, harness):
        findings = harness.findings(
            "src/pkg/specs.py", LOCK_FIELD, manifest=MANIFEST, select=["REP006"]
        )
        assert new_codes(findings) == ["REP006"]
        assert "guard" in findings[0].message

    def test_execution_field_is_flagged(self, harness):
        findings = harness.findings(
            "src/pkg/specs.py", EXECUTION_FIELD, manifest=MANIFEST, select=["REP006"]
        )
        assert new_codes(findings) == ["REP006"]
        assert "Execution" in findings[0].message

    def test_lambda_default_is_flagged(self, harness):
        findings = harness.findings(
            "src/pkg/specs.py", LAMBDA_DEFAULT, manifest=MANIFEST, select=["REP006"]
        )
        assert new_codes(findings) == ["REP006"]
        assert "lambda" in findings[0].message

    def test_clean_spec_passes(self, harness):
        assert (
            harness.findings(
                "src/pkg/specs.py", CLEAN_SPEC, manifest=MANIFEST, select=["REP006"]
            )
            == []
        )

    def test_undeclared_class_is_ignored(self, harness):
        findings = harness.findings(
            "src/pkg/other.py", LOCK_FIELD, manifest=MANIFEST, select=["REP006"]
        )
        assert findings == []


class TestRep006Workers:
    def test_lambda_to_fan_out_shared_is_flagged(self, harness):
        findings = harness.findings(
            "src/pkg/mod.py", LAMBDA_TO_FAN_OUT, manifest=MANIFEST, select=["REP006"]
        )
        assert new_codes(findings) == ["REP006"]

    def test_fan_out_shared_with_default_execution_is_clean(self, harness):
        assert (
            harness.findings(
                "src/pkg/mod.py",
                LAMBDA_TO_FAN_OUT_DEFAULT,
                manifest=MANIFEST,
                select=["REP006"],
            )
            == []
        )

    def test_local_function_to_pool_map_is_flagged(self, harness):
        findings = harness.findings(
            "src/pkg/mod.py",
            LOCAL_WORKER_TO_POOL_MAP,
            manifest=MANIFEST,
            select=["REP006"],
        )
        assert new_codes(findings) == ["REP006"]
        assert "helper" in findings[0].message

    def test_run_many_defaults_are_not_process_backed(self, harness):
        assert (
            harness.findings(
                "src/pkg/mod.py",
                LAMBDA_TO_RUN_MANY_DEFAULT,
                manifest=MANIFEST,
                select=["REP006"],
            )
            == []
        )

    def test_run_many_explicit_process_mode_is_flagged(self, harness):
        findings = harness.findings(
            "src/pkg/mod.py",
            LAMBDA_TO_RUN_MANY_PROCESS,
            manifest=MANIFEST,
            select=["REP006"],
        )
        assert new_codes(findings) == ["REP006"]

    def test_run_many_literal_sequential_execution_is_clean(self, harness):
        assert (
            harness.findings(
                "src/pkg/mod.py",
                LAMBDA_TO_RUN_MANY_SEQUENTIAL,
                manifest=MANIFEST,
                select=["REP006"],
            )
            == []
        )

    def test_run_many_dynamic_mode_is_flagged(self, harness):
        findings = harness.findings(
            "src/pkg/mod.py",
            LAMBDA_TO_RUN_MANY_DYNAMIC,
            manifest=MANIFEST,
            select=["REP006"],
        )
        assert new_codes(findings) == ["REP006"]

    def test_run_many_execution_with_dynamic_mode_is_flagged(self, harness):
        findings = harness.findings(
            "src/pkg/mod.py",
            LAMBDA_TO_RUN_MANY_DYNAMIC_MODE,
            manifest=MANIFEST,
            select=["REP006"],
        )
        assert new_codes(findings) == ["REP006"]

    def test_module_level_worker_is_clean(self, harness):
        assert (
            harness.findings(
                "src/pkg/mod.py",
                MODULE_LEVEL_WORKER,
                manifest=MANIFEST,
                select=["REP006"],
            )
            == []
        )

    def test_nested_worker_passed_by_name_is_flagged(self, harness):
        findings = harness.findings(
            "src/pkg/mod.py",
            NESTED_WORKER_PASSED_BY_NAME,
            manifest=MANIFEST,
            select=["REP006"],
        )
        assert new_codes(findings) == ["REP006"]
        assert "worker" in findings[0].message

    def test_factory_returning_nested_worker_is_flagged(self, harness):
        """Interprocedural: the call graph sees through ``make_worker(2)``."""
        findings = harness.findings(
            "src/pkg/mod.py",
            NESTED_WORKER_VIA_FACTORY,
            manifest=MANIFEST,
            select=["REP006"],
        )
        assert new_codes(findings) == ["REP006"]

    def test_factory_returning_module_level_worker_is_clean(self, harness):
        findings = harness.findings(
            "src/pkg/mod.py",
            MODULE_LEVEL_WORKER_VIA_FACTORY,
            manifest=MANIFEST,
            select=["REP006"],
        )
        assert new_codes(findings) == []

    def test_suppression_with_reason_is_honored(self, harness):
        source = LAMBDA_TO_RUN_MANY_PROCESS.replace(
            'mode="process"))',
            'mode="process"))  # repro: allow[REP006] -- fixture: tests the error',
        )
        findings = harness.findings(
            "src/pkg/mod.py", source, manifest=MANIFEST, select=["REP006"]
        )
        assert len(findings) == 1
        assert findings[0].suppressed
        assert new_codes(findings) == []

    def test_factory_imported_from_another_module_is_flagged(self, harness):
        harness.write("src/pkg/factories.py", FACTORY_MODULE)
        harness.write("src/pkg/mod.py", LAUNCH_WITH_IMPORTED_FACTORY)
        report = harness.lint(
            "src/pkg/factories.py",
            "src/pkg/mod.py",
            manifest=MANIFEST,
            select=["REP006"],
        )
        assert new_codes(report.findings) == ["REP006"]
        assert report.findings[0].path.endswith("mod.py")


FACTORY_SHAPES = {
    "returns-nested-def": (
        """
        def factory():
            def worker(task):
                return task
            return worker
        """,
        True,
    ),
    "returns-lambda": (
        """
        def factory(scale):
            return lambda task: task * scale
        """,
        True,
    ),
    "returns-nested-async-def": (
        """
        def factory():
            async def worker(task):
                return task
            return worker
        """,
        True,
    ),
    "returns-nested-def-on-one-branch": (
        """
        def factory(fast):
            def worker(task):
                return task
            if fast:
                return worker
            return module_worker
        """,
        True,
    ),
    "returns-module-level-name": (
        """
        def factory():
            return module_worker
        """,
        False,
    ),
    "calls-its-nested-def": (
        """
        def factory(task):
            def worker(value):
                return value
            return worker(task)
        """,
        False,
    ),
    "lambda-returned-only-by-a-nested-def": (
        """
        def factory():
            def inner():
                return lambda task: task
            inner()
        """,
        False,
    ),
    "nested-def-returned-only-by-a-nested-class": (
        """
        def factory():
            class Holder:
                def get(self):
                    def worker(task):
                        return task
                    return worker
            return Holder()
        """,
        False,
    ),
}


class TestReturnsNestedFunction:
    @pytest.mark.parametrize("shape", sorted(FACTORY_SHAPES))
    def test_factory_shape(self, shape):
        source, expected = FACTORY_SHAPES[shape]
        function = ast.parse(textwrap.dedent(source)).body[0]
        assert _returns_nested_function(function) is expected
