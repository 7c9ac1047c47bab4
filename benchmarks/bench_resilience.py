"""Micro-benchmark: the price and payoff of the fault-tolerant engine.

PR 7 rerouted ``WorkerPool.map`` from one ``executor.map`` call to per-task
futures driven by an :class:`~repro.engine.resilience.ExecutionPolicy`
(bounded retries, timeouts, crash recovery, a degradation ladder).  Two
numbers keep that honest:

* **no-fault overhead** — the resilient path versus a plain
  ``ProcessPoolExecutor.map`` over the *same* shared-memory tasks (the PR 4
  fan-out restated).  Acceptance: under 5% on the full-size run — the
  machinery may cost bookkeeping, never throughput.
* **recovery cost** — the same sweep with one injected worker crash: how
  much wall-clock one respawn-and-replay cycle adds, with the results still
  byte-identical to the undisturbed run.

The measured workload matches ``bench_shared_pool.py``: an 8-task metric
sweep (UL, discernibility, C_avg per task) over a 50k-record RT-dataset on
two workers.  Writes ``BENCH_resilience.json`` at the repository root.

Run standalone (writes the trajectory file)::

    PYTHONPATH=src python benchmarks/bench_resilience.py            # full 50k run
    PYTHONPATH=src python benchmarks/bench_resilience.py --smoke    # small CI run

or through pytest (only collected when addressed explicitly)::

    python -m pytest benchmarks/bench_resilience.py -m slow -s
"""

from __future__ import annotations

import json
import os
import sys
import tempfile
import time
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass
from pathlib import Path

import pytest

from repro.columnar.shared import resolve_shared_dataset
from repro.datasets import generate_rt_dataset
from repro.engine.pool import WorkerPool
from repro.engine.resilience import ExecutionPolicy, RunReport
from repro.metrics import average_class_size, discernibility_metric, utility_loss

REPO_ROOT = Path(__file__).resolve().parent.parent
TRAJECTORY_FILE = REPO_ROOT / "BENCH_resilience.json"

N_RECORDS = 50_000
N_TASKS = 8
MAX_WORKERS = 2
MAX_OVERHEAD_FRACTION = 0.05

SMOKE_KWARGS = dict(n_records=4_000, n_tasks=4)


def _metric_task(task) -> tuple[float, int, float]:
    """One sweep point over the shared dataset (module-level: picklable)."""
    manifest, k = task
    dataset = resolve_shared_dataset(manifest)
    attributes = [a.name for a in dataset.schema.relational if a.quasi_identifier]
    return (
        utility_loss(dataset, dataset, attribute="Items"),
        discernibility_metric(dataset, attributes),
        average_class_size(dataset, k, attributes),
    )


@dataclass(frozen=True)
class _CrashOnce:
    """``_metric_task`` whose first execution on ``k`` kills its worker.

    The execution that creates ``marker`` crashes; every later one (the
    replay) computes the task.
    """

    k: int
    marker: str

    def __call__(self, task) -> tuple[float, int, float]:
        if task[1] == self.k:
            try:
                os.close(os.open(self.marker, os.O_CREAT | os.O_EXCL | os.O_WRONLY))
            except FileExistsError:
                pass
            else:
                os._exit(1)
        return _metric_task(task)


def _prepare(n_records: int, n_tasks: int):
    dataset = generate_rt_dataset(n_records=n_records, n_items=40, seed=2014)
    for attribute in dataset.schema.names:
        dataset.columnar(attribute)
    dataset.columnar("Items").bitset_postings()
    ks = [2 + task for task in range(n_tasks)]
    return dataset, ks


def run_plain(tasks) -> tuple[list, float]:
    """The PR 4 fan-out restated: one executor.map, no resilience loop."""
    start = time.perf_counter()
    with ProcessPoolExecutor(max_workers=MAX_WORKERS) as executor:
        results = list(executor.map(_metric_task, tasks))
    return results, time.perf_counter() - start


def run_resilient(
    tasks, policy: ExecutionPolicy | None = None, worker=_metric_task
) -> tuple[list, float, RunReport]:
    """The PR 7 path: per-task futures under an ExecutionPolicy."""
    report = RunReport()
    start = time.perf_counter()
    with WorkerPool(max_workers=MAX_WORKERS) as pool:
        results = pool.map(worker, tasks, policy=policy, report=report)
    return results, time.perf_counter() - start, report


def run_benchmark(
    n_records: int = N_RECORDS, n_tasks: int = N_TASKS, repeats: int = 2
) -> dict:
    dataset, ks = _prepare(n_records, n_tasks)

    # One host pool owns the export; both measured paths get a *fresh*
    # executor (spawn + worker-side attach included) so the comparison
    # isolates the resilience machinery itself, not warm-worker reuse.
    with WorkerPool(max_workers=MAX_WORKERS) as host:
        manifest = host.share(dataset)
        tasks = [(manifest, k) for k in ks]

        # Interleave the repeats so machine drift hits both paths equally;
        # take the best of each (standard micro-benchmark practice).
        plain_seconds, resilient_seconds = [], []
        for _ in range(repeats):
            plain_results, seconds = run_plain(tasks)
            plain_seconds.append(seconds)
            resilient_results, seconds, no_fault_report = run_resilient(tasks)
            resilient_seconds.append(seconds)
            assert resilient_results == plain_results

        # Recovery: the same sweep with one worker crash on task 3.
        with tempfile.TemporaryDirectory() as scratch:
            crashed_results, crashed_seconds, crash_report = run_resilient(
                tasks,
                policy=ExecutionPolicy(backoff_base=0.0),
                worker=_CrashOnce(ks[3], os.path.join(scratch, "crashed")),
            )
        assert crashed_results == plain_results

    best_plain = min(plain_seconds)
    best_resilient = min(resilient_seconds)
    overhead = best_resilient / best_plain - 1.0
    return {
        "dataset": {
            "n_records": n_records,
            "n_tasks": n_tasks,
            "max_workers": MAX_WORKERS,
        },
        "plain_executor_map": {"seconds": best_plain, "samples": plain_seconds},
        "resilient_pool_map": {
            "seconds": best_resilient,
            "samples": resilient_seconds,
            "total_attempts": no_fault_report.total_attempts,
            "retries": no_fault_report.total_retries,
        },
        "no_fault_overhead_fraction": overhead,
        "recovery_one_crash": {
            "seconds": crashed_seconds,
            "added_seconds_vs_no_fault": crashed_seconds - best_resilient,
            "respawns": crash_report.respawns,
            "retries": crash_report.total_retries,
            "replays": sum(task.replays for task in crash_report.tasks),
            "results_identical": True,
        },
    }


def write_trajectory(payload: dict) -> Path:
    TRAJECTORY_FILE.write_text(
        json.dumps(payload, indent=2, sort_keys=True) + "\n", encoding="utf-8"
    )
    return TRAJECTORY_FILE


@pytest.mark.slow
def test_resilience_overhead_under_five_percent(record):
    payload = run_benchmark()
    record("resilience", payload)
    write_trajectory(payload)
    assert payload["no_fault_overhead_fraction"] < MAX_OVERHEAD_FRACTION
    assert payload["recovery_one_crash"]["respawns"] >= 1


def test_resilience_smoke(record):
    """Fast CI smoke: recovery works and the accounting is coherent.

    The 5% bar is asserted only on the full-size run — at smoke scale each
    task is milliseconds and scheduler noise dominates the ratio.  In CI
    (``CI`` set) the small-size payload is written to
    ``BENCH_resilience.json`` for the artifact upload; local test runs
    leave the committed full-size trajectory untouched.
    """
    payload = run_benchmark(**SMOKE_KWARGS, repeats=1)
    record("resilience_smoke", payload)
    if os.environ.get("CI"):
        write_trajectory(payload)
    recovery = payload["recovery_one_crash"]
    assert recovery["respawns"] >= 1
    assert recovery["results_identical"]
    assert payload["resilient_pool_map"]["retries"] == 0


def _print_summary(payload: dict) -> None:
    plain = payload["plain_executor_map"]
    resilient = payload["resilient_pool_map"]
    recovery = payload["recovery_one_crash"]
    print(
        f"dataset: {payload['dataset']['n_records']} records, "
        f"{payload['dataset']['n_tasks']} tasks, "
        f"{payload['dataset']['max_workers']} workers"
    )
    print(f"plain executor.map:  {plain['seconds']:.3f}s")
    print(
        f"resilient pool.map:  {resilient['seconds']:.3f}s "
        f"({payload['no_fault_overhead_fraction']:+.1%} overhead)"
    )
    print(
        f"one-crash recovery:  {recovery['seconds']:.3f}s "
        f"(+{recovery['added_seconds_vs_no_fault']:.3f}s, "
        f"{recovery['respawns']} respawn(s), {recovery['replays']} replay(s))"
    )


if __name__ == "__main__":
    kwargs = SMOKE_KWARGS if "--smoke" in sys.argv[1:] else {}
    result = run_benchmark(**kwargs)
    path = write_trajectory(result)
    _print_summary(result)
    print(f"trajectory written to {path}")
