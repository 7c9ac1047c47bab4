"""REP006: process-safety fixtures."""

from __future__ import annotations

from lint_harness import new_codes

from repro.analysis.manifest import InvariantManifest, WorkerCall

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
