"""The three workloads and one timed repetition of each.

Each workload generates its input from the seed, the program reads it back
from CSV (``load_csv`` with the generated schema), and one repetition is a
single call through the public ``Session`` facade:

* ``eval-rt`` — Evaluation mode (the paper's Fig. 3) on an RT-dataset with
  every indicator on: privacy verification and the three attacks;
* ``compare-relational`` — Comparison mode (Fig. 4) over the four relational
  algorithms, sequential, without checkpoints;
* ``compare-transaction-process`` — Comparison mode over the five
  transaction algorithms, fanned out to worker processes with a fresh
  checkpoint store, then the identical call again, served from the store.
"""

from __future__ import annotations

import os
import resource
import shutil
import statistics
import tempfile
import time
from contextlib import nullcontext
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Callable

from gate import Cell
from layers import CALL_SPANS, SETUP_SPANS, Tracer

from repro.datasets.attributes import Schema
from repro.datasets.csv_io import load_csv
from repro.datasets.dataset import Dataset
from repro.datasets.generators import (
    generate_adult_like,
    generate_market_basket,
    generate_rt_dataset,
)
from repro.engine.checkpoint import CheckpointStore
from repro.engine.config import (
    AnonymizationConfig,
    relational_config,
    rt_config,
    transaction_config,
)
from repro.engine.resources import ExperimentResources
from repro.engine.results import ComparisonReport, EvaluationReport
from repro.frontend.session import Session


@dataclass(frozen=True)
class Workload:
    name: str
    generate: Callable[..., Dataset]
    size: dict[str, int]
    configs: tuple[AnonymizationConfig, ...]
    #: ``(parameter, start, end, step)`` of a Comparison-mode sweep;
    #: ``None`` for a single Evaluation-mode run.
    sweep: tuple[str, int, int, int] | None
    process: bool = False

    def cells_per_call(self) -> int:
        if self.sweep is None:
            return len(self.configs)
        _, start, end, step = self.sweep
        return len(self.configs) * len(range(start, end + 1, step))


WORKLOADS = {
    workload.name: workload
    for workload in (
        Workload(
            name="eval-rt",
            generate=generate_rt_dataset,
            size={"n_records": 2500, "n_items": 40},
            configs=(
                rt_config("cluster", "apriori", bounding="rtmerger", k=10, m=2, delta=0.5),
            ),
            sweep=None,
        ),
        Workload(
            name="compare-relational",
            generate=generate_adult_like,
            size={"n_records": 1500},
            configs=tuple(
                relational_config(name, k=5)
                for name in ("incognito", "top-down", "cluster", "full-subtree")
            ),
            sweep=("k", 5, 45, 20),
        ),
        Workload(
            name="compare-transaction-process",
            generate=generate_market_basket,
            size={"n_records": 2500, "n_items": 60},
            # Longest first, so two workers finish close together and the
            # makespan follows the total work rather than the task order.
            configs=tuple(
                transaction_config(name, k=5, m=2)
                for name in ("apriori", "lra", "vpa", "pcta", "coat")
            ),
            sweep=("k", 5, 20, 5),
            process=True,
        ),
    )
}


def worker_count() -> int:
    """Fan-out width: never more workers than CPUs this process may use."""
    return len(os.sched_getaffinity(0))


def cpu_seconds(who: int) -> float:
    usage = resource.getrusage(who)
    return usage.ru_utime + usage.ru_stime


def peak_rss_mb(who: int) -> float:
    """Peak resident set size (Linux reports ``ru_maxrss`` in KiB)."""
    return resource.getrusage(who).ru_maxrss / 1024.0


#: Seconds the reference loop takes on this machine when no other tenant
#: loads it (2-CPU x86-64 container, Python 3.11).
REFERENCE_S = 0.012


def _loop_seconds(samples: int) -> float:
    times = []
    for _ in range(samples):
        started = time.perf_counter()
        total = 0
        table = {}
        for number in range(100_000):
            table[number & 1023] = total
            total += number * number % 7
        times.append(time.perf_counter() - started)
    return statistics.median(times)


def reference_seconds(fan_out: bool) -> float:
    """Time of a fixed pure-Python loop: how fast the machine runs right now.

    The benchmark shares its CPUs with other tenants, whose load slows
    everything it measures by up to ~1.7x for minutes at a time, and not
    every CPU equally.  So the loop runs where the measured call runs: where
    the scheduler puts it for a single-process call, and pinned to each CPU
    in turn (the mean) for a call that fans out to all of them.  Timings are
    scaled by ``REFERENCE_S / reference_seconds(...)`` measured next to
    them, so they read as seconds on a machine that runs this loop in
    ``REFERENCE_S``.
    """
    if not fan_out:
        return _loop_seconds(5)
    cpus = os.sched_getaffinity(0)
    per_cpu = []
    try:
        for cpu in sorted(cpus):
            os.sched_setaffinity(0, {cpu})
            per_cpu.append(_loop_seconds(3))
    finally:
        os.sched_setaffinity(0, cpus)
    return statistics.mean(per_cpu)


def scaled(seconds: float, reference_s: float) -> float:
    """``seconds`` as they would read on the unloaded machine."""
    return seconds * REFERENCE_S / reference_s


def directory_bytes(directory: str) -> int:
    return sum(
        os.path.getsize(os.path.join(root, name))
        for root, _, names in os.walk(directory)
        for name in names
    )


# -- set-up ------------------------------------------------------------------------
@dataclass
class SetUp:
    dataset: Dataset
    resources: ExperimentResources
    seconds: float
    #: :func:`reference_seconds` just before this set-up.
    reference_s: float
    layers: dict[str, float]


def set_up(workload: Workload, csv_path: Path, schema: Schema, traced: bool) -> SetUp:
    """``load_csv`` plus resource preparation for every configuration."""
    tracer = Tracer(SETUP_SPANS)
    reference = reference_seconds(fan_out=False)
    started = time.perf_counter()
    dataset = load_csv(csv_path, schema=schema)
    loaded = time.perf_counter()
    with tracer if traced else nullcontext():
        first, *rest = workload.configs
        resources = ExperimentResources.prepare(dataset, first)
        for config in rest:
            resources.ensure_for(dataset, config)
    finished = time.perf_counter()
    layers = {"datasets.load_s": loaded - started}
    if traced:
        for layer in ("datasets.domains", "hierarchy.build", "policies.generate", "queries.workload"):
            layers[f"{layer}_s"] = tracer.self_seconds[layer]
    return SetUp(dataset, resources, finished - started, reference, layers)


# -- one timed repetition ----------------------------------------------------------
@dataclass
class Repetition:
    wall_s: float
    cpu_s: float
    traced: bool
    #: Mean :func:`reference_seconds` just before and just after the call.
    reference_s: float
    #: Output of the timed call (dropped once the first repetition is gated).
    output: Any
    #: Output of the identical call served from the checkpoint store.
    resumed: Any = None
    #: Counts that must repeat exactly for a given seed.
    counts: dict[str, int] = field(default_factory=dict)
    #: Per-layer metrics of this repetition; the run reports the traced ones.
    layers: dict[str, float] = field(default_factory=dict)


def _compare(
    workload: Workload,
    session: Session,
    resources: ExperimentResources,
    store: CheckpointStore | None,
) -> ComparisonReport:
    assert workload.sweep is not None
    if not workload.process:
        return session.compare(list(workload.configs), *workload.sweep, resources=resources)
    with session.worker_pool(max_workers=worker_count()) as pool:
        return session.compare(
            list(workload.configs),
            *workload.sweep,
            resources=resources,
            mode="process",
            pool=pool,
            checkpoint=store,
        )


def reports_of(workload: Workload, output: Any) -> list[tuple[AnonymizationConfig, EvaluationReport]]:
    """Every cell's configuration and evaluation report, in a fixed order."""
    if workload.sweep is None:
        return [(workload.configs[0], output)]
    return [
        (config.with_parameter(output.parameter, value), report)
        for config, sweep in zip(workload.configs, output.sweeps)
        for value, report in zip(output.values, sweep.reports)
    ]


def cells_of(workload: Workload, output: Any) -> list[Cell]:
    return [
        Cell(
            label=f"{report.configuration.get('label')}@k={config.k}",
            config=config,
            anonymized=report.anonymized,
            are=report.are,
            gcp=report.utility.get("relational_gcp"),
            ul=report.utility.get("transaction_ul"),
        )
        for config, report in reports_of(workload, output)
    ]


def repeat(
    workload: Workload, session: Session, resources: ExperimentResources, work_dir: Path, traced: bool
) -> Repetition:
    """Run the workload's timed call once (plus the resume, if it has one)."""
    tracer = Tracer(CALL_SPANS)
    store_dir = tempfile.mkdtemp(prefix="checkpoints-", dir=work_dir) if workload.process else None
    counts = {"cells_attempted": workload.cells_per_call()}
    layers: dict[str, float] = {}
    resumed = None
    reference_before = reference_seconds(workload.process)
    try:
        cpu_before = cpu_seconds(resource.RUSAGE_SELF) + cpu_seconds(resource.RUSAGE_CHILDREN)
        started = time.perf_counter()
        with tracer if traced else nullcontext():
            if workload.sweep is None:
                output = session.evaluate(workload.configs[0], resources=resources, simulate_attacks=True)
            else:
                store = CheckpointStore(store_dir) if store_dir else None
                output = _compare(workload, session, resources, store)
        wall = time.perf_counter() - started
        cpu = cpu_seconds(resource.RUSAGE_SELF) + cpu_seconds(resource.RUSAGE_CHILDREN) - cpu_before
        if store_dir is not None:
            counts["engine.checkpoint.bytes"] = directory_bytes(store_dir)
            store = CheckpointStore(store_dir)
            started = time.perf_counter()
            resumed = _compare(workload, session, resources, store)
            layers["resume_s"] = time.perf_counter() - started
            layers["engine.checkpoint.load_s"] = store.stats["seconds_loading"]
    finally:
        if store_dir is not None:
            shutil.rmtree(store_dir, ignore_errors=True)
    reference = (reference_before + reference_seconds(workload.process)) / 2
    rep = Repetition(wall, cpu, traced, reference, output, resumed, counts, layers)
    _account(workload, rep, tracer)
    return rep


def _account(workload: Workload, rep: Repetition, tracer: Tracer) -> None:
    """Fill the repetition's exact counts and per-layer metrics."""
    layers = rep.layers
    algorithm_seconds = 0.0
    for config, report in reports_of(workload, rep.output):
        algorithm_seconds += report.runtime_seconds
        if config.mode == "rt":
            for phase, seconds in report.phase_seconds.items():
                key = f"algorithms.rt.{phase.replace(' ', '_')}_s"
                layers[key] = layers.get(key, 0.0) + seconds
            rep.counts["algorithms.rt.merges"] = (
                rep.counts.get("algorithms.rt.merges", 0) + report.result.statistics["merges"]
            )
        else:
            name = config.relational_algorithm or config.transaction_algorithm
            key = f"algorithms.{config.mode}.{name}_s"
            layers[key] = layers.get(key, 0.0) + report.runtime_seconds
    if workload.process:
        _account_engine(rep, algorithm_seconds)
    if rep.traced:
        for layer, seconds in tracer.self_seconds.items():
            layers[f"{layer}_s"] = seconds
        layers["engine.evaluator.self_s"] = rep.wall_s - tracer.covered_seconds
        layers["coverage"] = tracer.covered_seconds / rep.wall_s
        rep.counts["queries.are_calls"] = tracer.calls["queries.are"]
        rep.counts["columnar.export_bytes"] = tracer.export_bytes


def _account_engine(rep: Repetition, algorithm_seconds: float) -> None:
    cold = rep.output.run_report
    resumed = rep.resumed.run_report
    durations = [attempt.duration_seconds for task in cold.tasks for attempt in task.attempts]
    rep.layers["engine.task_p50_s"] = statistics.median(durations)
    rep.layers["engine.task_max_s"] = max(durations)
    # Work the workers did (per-cell runtimes travel back in the reports),
    # over the time the workers were there for it.
    rep.layers["engine.worker_busy_frac"] = algorithm_seconds / (rep.wall_s * worker_count())
    rep.counts["engine.attempts"] = cold.total_attempts
    rep.layers["engine.attempts_per_task"] = cold.total_attempts / len(cold.tasks)
    rep.counts["engine.retries"] = cold.total_retries
    rep.counts["engine.respawns"] = cold.respawns
    cold_counts = cold.checkpoint_counts()
    resumed_counts = resumed.checkpoint_counts()
    for status in ("hit", "miss", "corrupt"):
        rep.counts[f"engine.checkpoint.{status}"] = cold_counts[status] + resumed_counts[status]
    rep.layers["engine.checkpoint.hit_ratio"] = resumed_counts["hit"] / max(1, sum(resumed_counts.values()))
