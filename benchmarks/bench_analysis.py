"""Benchmark: repro-lint full-repository analysis cost.

REP006 resolves workers through a whole-project call graph, so the linter
reads every analyzed module before it reports; this benchmark keeps that
cost honest by timing each phase over the real repository:

* **parse** — reading and AST-parsing every analyzed module,
* **graph** — building the import/call graph over the parsed project,
* **full** — an end-to-end ``analyze_paths`` run with every rule active
  (which repeats parse/graph internally — it is the number CI's
  static-analysis job actually pays).

Besides asserting a generous wall-time ceiling, the run writes a
machine-readable ``BENCH_analysis.json`` at the repository root (phase
timings plus call-graph size) so the repo carries a perf trajectory for the
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

from repro.analysis.core import (
    ModuleContext,
    Project,
    analyze_paths,
    iter_python_files,
)
from repro.analysis.graph import ProjectGraph
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
    modules = []
    for path in iter_python_files(REPO_ROOT, list(ANALYZED_PATHS)):
        modules.append(ModuleContext(REPO_ROOT, path, path.read_text()))
    parse_seconds = time.perf_counter() - started

    project = Project(REPO_ROOT, modules, manifest)
    started = time.perf_counter()
    graph = ProjectGraph.build(project)
    graph_seconds = time.perf_counter() - started

    started = time.perf_counter()
    report = analyze_paths(ANALYZED_PATHS, root=REPO_ROOT, manifest=manifest)
    full_seconds = time.perf_counter() - started

    return {
        "benchmark": "analysis",
        "analyzed_paths": list(ANALYZED_PATHS),
        "analyzed_files": report.analyzed_files,
        "phases": {
            "parse_seconds": round(parse_seconds, 3),
            "graph_seconds": round(graph_seconds, 3),
            "full_run_seconds": round(full_seconds, 3),
        },
        "call_graph": graph.stats(),
    }


def _write_trajectory(payload: dict) -> None:
    TRAJECTORY_FILE.write_text(json.dumps(payload, indent=2) + "\n")


class TestAnalysisBenchmark:
    def test_full_repo_analysis_within_ceiling(self):
        payload = run_benchmark()
        _write_trajectory(payload)
        assert payload["phases"]["full_run_seconds"] < FULL_RUN_CEILING_SECONDS
        # The graph must actually cover the repository: a collapse to a
        # near-empty graph would silently disable REP006's worker resolution.
        stats = payload["call_graph"]
        assert stats["functions"] > 500
        assert stats["resolved_call_sites"] > 500
        assert stats["call_sites"] >= stats["resolved_call_sites"]


if __name__ == "__main__":
    result = run_benchmark()
    _write_trajectory(result)
    print(json.dumps(result, indent=2))
    print(f"wrote {TRAJECTORY_FILE}")
