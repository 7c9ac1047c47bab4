"""Benchmark: repro-lint full-repository analysis cost.

Every rule inspects one module at a time, so the linter's cost is reading
and parsing the analyzed files plus one visit per rule.  This benchmark
keeps that cost visible by timing two phases over the real repository:

* **parse** — reading and AST-parsing every analyzed module,
* **full** — an end-to-end ``analyze_paths`` run with every rule active
  (which repeats the parse internally — it is the number CI's
  static-analysis job actually pays).

Besides asserting a generous wall-time ceiling, the run writes a
machine-readable ``BENCH_analysis.json`` at the repository root (phase
timings and file count) so the repo carries a perf trajectory for the
analyzer alongside the kernel benchmarks.

Run standalone::

    PYTHONPATH=src python benchmarks/bench_analysis.py

or through pytest (only collected when addressed explicitly)::

    python -m pytest benchmarks/bench_analysis.py -q
"""

from __future__ import annotations

import json
import time
from pathlib import Path

from repro.analysis.core import ModuleContext, analyze_paths, iter_python_files
from repro.analysis.manifest import InvariantManifest

REPO_ROOT = Path(__file__).resolve().parent.parent
TRAJECTORY_FILE = REPO_ROOT / "BENCH_analysis.json"

ANALYZED_PATHS = ("src", "tests", "benchmarks")

#: Generous ceiling for one full analysis run: the gate is "stays usable in
#: CI and pre-commit", not a micro-benchmark — flag only order-of-magnitude
#: regressions (the full run takes ~2 s on a laptop-class machine).
FULL_RUN_CEILING_SECONDS = 120.0


def run_benchmark() -> dict:
    manifest = InvariantManifest.load()

    started = time.perf_counter()
    for path in iter_python_files(REPO_ROOT, list(ANALYZED_PATHS)):
        ModuleContext(REPO_ROOT, path, path.read_text())
    parse_seconds = time.perf_counter() - started

    started = time.perf_counter()
    report = analyze_paths(ANALYZED_PATHS, root=REPO_ROOT, manifest=manifest)
    full_seconds = time.perf_counter() - started

    return {
        "benchmark": "analysis",
        "analyzed_paths": list(ANALYZED_PATHS),
        "analyzed_files": report.analyzed_files,
        "phases": {
            "parse_seconds": round(parse_seconds, 3),
            "full_run_seconds": round(full_seconds, 3),
        },
    }


def _write_trajectory(payload: dict) -> None:
    TRAJECTORY_FILE.write_text(json.dumps(payload, indent=2) + "\n")


class TestAnalysisBenchmark:
    def test_full_repo_analysis_within_ceiling(self):
        payload = run_benchmark()
        _write_trajectory(payload)
        assert payload["phases"]["full_run_seconds"] < FULL_RUN_CEILING_SECONDS
        # The run must actually cover the repository: a collapse to a few
        # files would silently disable every rule.
        assert payload["analyzed_files"] > 150


if __name__ == "__main__":
    result = run_benchmark()
    _write_trajectory(result)
    print(json.dumps(result, indent=2))
    print(f"wrote {TRAJECTORY_FILE}")
