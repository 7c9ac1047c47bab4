"""Tiny-size self-test of the benchmark.

Run from the repository root::

    python3 -m pytest perfbench/test_smoke.py -q

It checks that every workload emits exactly the metrics ``BENCHMARK.json``
names, that the correctness gate flags an un-anonymized dataset passed off as
an anonymized output, and that the benchmark refuses to run without the
program's sources.
"""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

import gate  # noqa: E402
import run  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

from repro.engine.resources import ExperimentResources  # noqa: E402

TINY = {
    "eval-rt": {"n_records": 120, "n_items": 12},
    "compare-relational": {"n_records": 150},
    "compare-transaction-process": {"n_records": 150, "n_items": 12},
}


@pytest.fixture(scope="module")
def declared_benchmark():
    return json.loads((ROOT / "BENCHMARK.json").read_text())


def test_workloads_match_benchmark_json(declared_benchmark):
    assert [workload["name"] for workload in declared_benchmark["workloads"]] == list(WORKLOADS)


@pytest.mark.parametrize("trace", [False, True])
@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_emitted_metrics_match_benchmark_json(declared_benchmark, name, trace):
    result, details = run.measure(name, seed=3, seconds=0, trace=trace, size=TINY[name])
    declared = declared_benchmark["per_layer" if trace else "end_to_end"]
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert {metric: value["unit"] for metric, value in result["metrics"].items()} == {
        metric["name"]: metric["unit"] for metric in declared
    }
    assert result["correct"], details["failures"]
    assert result["failed"] == 0 and result["attempted"] >= 1
    assert details["seed"] == 3


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_gate_flags_unanonymized_output(name):
    workload = WORKLOADS[name]
    original = workload.generate(seed=3, **TINY[name])
    for config in workload.configs:
        if workload.sweep is not None:
            # The strongest promise the sweep makes: its largest k.
            parameter, _, end, _ = workload.sweep
            config = config.with_parameter(parameter, end)
        resources = ExperimentResources.prepare(original, config)
        leaked = original.copy()
        reason = gate.violation(original, config, leaked, resources.item_hierarchy)
        assert reason is not None and "breaks" in reason, config.display_label


def test_refuses_to_run_without_program_sources(tmp_path):
    shutil.copytree(ROOT / "perfbench", tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path / "BENCHMARK.json")
    completed = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "eval-rt", "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path,
        capture_output=True,
        text=True,
        timeout=60,
    )
    assert completed.returncode != 0
    assert completed.stdout == ""
