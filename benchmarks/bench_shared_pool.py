"""Micro-benchmark: shared-memory fan-out vs the pickle-everything pool.

Before this subsystem, ``run_many(mode="process")`` shipped the full dataset
inside every task: for an 8-task sweep the 50k-record dataset was pickled,
piped and unpickled eight times, and every worker task rebuilt the columnar
caches (CSR tokens, posting bitsets, relational codes) from scratch.  The
shared-memory path exports the columnar arrays **once** into a
``multiprocessing.shared_memory`` segment and ships only the small picklable
manifest; workers attach zero-copy views, memoized per process.

The measured workload is an 8-task metric sweep (UL, discernibility, C_avg
per task) over a 50k-record RT-dataset, end to end — pool construction,
dataset fan-out, task execution and shutdown/unlink all included:

* **baseline** — the pre-subsystem process mode, restated verbatim: a fresh
  ``ProcessPoolExecutor`` whose tasks each carry the dataset,
* **shared** — :class:`repro.engine.pool.WorkerPool` plus
  ``pool.share(dataset)``, tasks carrying the manifest.

The two paths run in alternating pairs (baseline, then shared) and the
acceptance bar (>= 2x) gates the median of the per-pair speedups, so one
slow run on a busy host does not decide it.  The run reports every pair and
the per-task startup payload of both paths (pickled task bytes), and writes
a machine-readable ``BENCH_shm.json`` at the repository root so the repo
carries the fan-out trajectory.

Run standalone (writes the trajectory file)::

    PYTHONPATH=src python benchmarks/bench_shared_pool.py            # full 50k run
    PYTHONPATH=src python benchmarks/bench_shared_pool.py --smoke    # small CI run

or through pytest (only collected when addressed explicitly)::

    python -m pytest benchmarks/bench_shared_pool.py -m slow -s
"""

from __future__ import annotations

import json
import os
import pickle
import statistics
import sys
import time
from concurrent.futures import ProcessPoolExecutor
from pathlib import Path

import pytest

from repro.columnar.shared import resolve_shared_dataset
from repro.datasets import generate_rt_dataset
from repro.engine.pool import WorkerPool
from repro.metrics import average_class_size, discernibility_metric, utility_loss

REPO_ROOT = Path(__file__).resolve().parent.parent
TRAJECTORY_FILE = REPO_ROOT / "BENCH_shm.json"

N_RECORDS = 50_000
N_TASKS = 8
MAX_WORKERS = 2
REQUIRED_SPEEDUP = 2.0
#: alternating (baseline, shared) pairs per run
PAIRS = 5

SMOKE_KWARGS = dict(n_records=4_000, n_tasks=4, pairs=1)


def _metric_task(task) -> tuple[float, int, float]:
    """One sweep point: columnar metrics over the (shared or shipped) dataset.

    Module-level so both pool flavours can pickle it.  The payload slot holds
    either the dataset itself (baseline) or a shared-memory manifest.
    """
    payload, k = task
    dataset = resolve_shared_dataset(payload)
    attributes = [a.name for a in dataset.schema.relational if a.quasi_identifier]
    return (
        utility_loss(dataset, dataset, attribute="Items"),
        discernibility_metric(dataset, attributes),
        average_class_size(dataset, k, attributes),
    )


def run_baseline(dataset, ks) -> tuple[list, float, int]:
    """The pre-subsystem path: ephemeral pool, dataset pickled into every task."""
    tasks = [(dataset, k) for k in ks]
    payload_bytes = len(pickle.dumps(tasks[0]))
    start = time.perf_counter()
    with ProcessPoolExecutor(max_workers=MAX_WORKERS) as executor:
        results = list(executor.map(_metric_task, tasks))
    return results, time.perf_counter() - start, payload_bytes


def run_shared(dataset, ks) -> tuple[list, float, dict]:
    """The shared-memory path: one export, manifest-sized tasks, reused pool."""
    start = time.perf_counter()
    with WorkerPool(max_workers=MAX_WORKERS) as pool:
        export_start = time.perf_counter()
        manifest = pool.share(dataset)
        export_seconds = time.perf_counter() - export_start
        tasks = [(manifest, k) for k in ks]
        payload_bytes = len(pickle.dumps(tasks[0]))
        segment_bytes = manifest.total_bytes
        results = pool.map(_metric_task, tasks)
    elapsed = time.perf_counter() - start
    stats = {
        "per_task_payload_bytes": payload_bytes,
        "shared_segment_bytes": segment_bytes,
        "export_seconds": export_seconds,
    }
    return results, elapsed, stats


def run_benchmark(n_records: int = N_RECORDS, n_tasks: int = N_TASKS, pairs: int = PAIRS) -> dict:
    dataset = generate_rt_dataset(n_records=n_records, n_items=40, seed=2014)
    # Warm the exporter-side columnar views so both paths start from the
    # steady state the engine runs in (dataset already analysed once).
    for attribute in dataset.schema.names:
        dataset.columnar(attribute)
    dataset.columnar("Items").bitset_postings()
    ks = [2 + task for task in range(n_tasks)]

    runs = []
    for _ in range(pairs):
        baseline_results, baseline_seconds, baseline_payload = run_baseline(dataset, ks)
        shared_results, shared_seconds, shared_stats = run_shared(dataset, ks)
        assert shared_results == baseline_results
        runs.append(
            {
                "baseline_seconds": baseline_seconds,
                "shared_seconds": shared_seconds,
                "speedup": baseline_seconds / shared_seconds,
            }
        )
    baseline_seconds = statistics.median(run["baseline_seconds"] for run in runs)
    shared_seconds = statistics.median(run["shared_seconds"] for run in runs)

    return {
        "dataset": {
            "n_records": n_records,
            "n_tasks": n_tasks,
            "max_workers": MAX_WORKERS,
            "pairs": pairs,
        },
        "pairs": runs,
        "baseline_pickle_everything": {
            "seconds": baseline_seconds,
            "per_task_payload_bytes": baseline_payload,
            "total_shipped_bytes": baseline_payload * n_tasks,
        },
        "shared_memory_pool": {
            "seconds": shared_seconds,
            **shared_stats,
            "total_shipped_bytes": shared_stats["per_task_payload_bytes"] * n_tasks,
        },
        # the median of the per-pair ratios (the gated figure)
        "speedup": statistics.median(run["speedup"] for run in runs),
        "payload_reduction": baseline_payload
        / max(shared_stats["per_task_payload_bytes"], 1),
    }


def write_trajectory(payload: dict) -> Path:
    TRAJECTORY_FILE.write_text(
        json.dumps(payload, indent=2, sort_keys=True) + "\n", encoding="utf-8"
    )
    return TRAJECTORY_FILE


@pytest.mark.slow
def test_shared_pool_speedup(record):
    payload = run_benchmark()
    record("shared_pool", payload)
    write_trajectory(payload)
    assert payload["speedup"] >= REQUIRED_SPEEDUP
    assert payload["payload_reduction"] >= 100.0


def test_shared_pool_smoke(record):
    """Fast CI smoke: both paths agree and the manifest stays tiny.

    In CI (``CI`` set) the small-size payload is also written to
    ``BENCH_shm.json`` so the workflow can upload it as an artifact; local
    test runs leave the committed 50k-record trajectory untouched.
    """
    payload = run_benchmark(**SMOKE_KWARGS)
    record("shared_pool_smoke", payload)
    if os.environ.get("CI"):
        write_trajectory(payload)
    shared = payload["shared_memory_pool"]
    assert shared["per_task_payload_bytes"] < 16_384
    assert payload["baseline_pickle_everything"]["per_task_payload_bytes"] > shared[
        "per_task_payload_bytes"
    ]


def _print_summary(payload: dict) -> None:
    baseline = payload["baseline_pickle_everything"]
    shared = payload["shared_memory_pool"]
    print(
        f"dataset: {payload['dataset']['n_records']} records, "
        f"{payload['dataset']['n_tasks']} tasks, "
        f"{payload['dataset']['max_workers']} workers"
    )
    print(
        f"baseline: median {baseline['seconds']:.3f}s, "
        f"{baseline['per_task_payload_bytes']:,} bytes/task shipped"
    )
    print(
        f"shared:   median {shared['seconds']:.3f}s, "
        f"{shared['per_task_payload_bytes']:,} bytes/task shipped, "
        f"{shared['shared_segment_bytes']:,} bytes exported once "
        f"({shared['export_seconds']:.3f}s)"
    )
    ratios = ", ".join(f"{run['speedup']:.1f}x" for run in payload["pairs"])
    print(f"per-pair speedups: {ratios}")
    print(
        f"median speedup {payload['speedup']:.1f}x, "
        f"payload reduction {payload['payload_reduction']:.0f}x"
    )


if __name__ == "__main__":
    kwargs = SMOKE_KWARGS if "--smoke" in sys.argv[1:] else {}
    result = run_benchmark(**kwargs)
    path = write_trajectory(result)
    _print_summary(result)
    print(f"trajectory written to {path}")
