"""End-to-end, layer-by-layer benchmark of SECRETA's Evaluation and Comparison modes.

Run from the repository root::

    python3 perfbench/run.py --workload eval-rt --seed 1 --seconds 30 --trace 0
    python3 perfbench/run.py --scaling

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``; the line before it
holds the details a reviewer reads (seed, per-cell ARE/GCP/UL, exact counts,
gate failures).  ``--trace 0`` reports the end-to-end metrics, ``--trace 1``
the per-layer ones.  See ``perfbench/README.md``.
"""

from __future__ import annotations

import argparse
import contextlib
import gc
import json
import os
import resource
import statistics
import sys
import tempfile
import time
import traceback
from pathlib import Path
from typing import Any, Iterator

ROOT = Path(__file__).resolve().parent.parent

#: Seed kept out of tuning: re-check every claim made on other seeds on it.
HELD_OUT_SEED = 104729

END_TO_END = {
    "setup_s": "s",
    "wall_s": "s",
    "cpu_s": "s",
    "peak_rss_mb": "MB",
}

PER_LAYER = {
    "datasets.load_s": "s",
    "datasets.domains_s": "s",
    "hierarchy.build_s": "s",
    "policies.generate_s": "s",
    "queries.workload_s": "s",
    "queries.are_s": "s",
    "queries.are_calls": "count",
    "algorithms.run_s": "s",
    "algorithms.rt.relational_clustering_s": "s",
    "algorithms.rt.transaction_anonymization_s": "s",
    "algorithms.rt.cluster_merging_s": "s",
    "algorithms.rt.apply_s": "s",
    "algorithms.rt.merges": "count",
    "algorithms.relational.incognito_s": "s",
    "algorithms.relational.top-down_s": "s",
    "algorithms.relational.cluster_s": "s",
    "algorithms.relational.full-subtree_s": "s",
    "algorithms.transaction.coat_s": "s",
    "algorithms.transaction.pcta_s": "s",
    "algorithms.transaction.apriori_s": "s",
    "algorithms.transaction.lra_s": "s",
    "algorithms.transaction.vpa_s": "s",
    "metrics.utility_s": "s",
    "metrics.privacy_s": "s",
    "attacks.qi_s": "s",
    "attacks.item_s": "s",
    "attacks.rt_s": "s",
    "columnar.export_s": "s",
    "columnar.export_bytes": "bytes",
    "engine.fanout_s": "s",
    "engine.task_p50_s": "s",
    "engine.task_max_s": "s",
    "engine.worker_busy_frac": "ratio",
    "engine.attempts_per_task": "ratio",
    "engine.retries": "count",
    "engine.respawns": "count",
    "engine.checkpoint_s": "s",
    "engine.checkpoint.hit": "count",
    "engine.checkpoint.miss": "count",
    "engine.checkpoint.corrupt": "count",
    "engine.checkpoint.hit_ratio": "ratio",
    "engine.checkpoint.load_s": "s",
    "engine.checkpoint.bytes": "bytes",
    "engine.evaluator.self_s": "s",
    "coverage": "ratio",
    "tracing_overhead_s": "s",
    "resume_s": "s",
    "worker_peak_rss_mb": "MB",
    "failed_frac": "ratio",
}

#: Counts that repeat exactly for a given seed; every repetition must agree.
EXACT_COUNTS = (
    "cells_attempted",
    "queries.are_calls",
    "algorithms.rt.merges",
    "engine.attempts",
    "engine.retries",
    "engine.respawns",
    "engine.checkpoint.hit",
    "engine.checkpoint.miss",
    "engine.checkpoint.corrupt",
    "columnar.export_bytes",
    "engine.checkpoint.bytes",
)

#: Set-up runs per benchmark run; ``setup_s`` is their median.
SETUP_REPEATS = 7


def resume_mismatches(workload: Any, cold: Any, resumed: Any) -> list[str]:
    """Cells whose checkpoint-served output differs from the cold one."""
    from workloads import reports_of

    mismatches = []
    pairs = zip(reports_of(workload, cold), reports_of(workload, resumed))
    for (config, cold_report), (_, resumed_report) in pairs:
        if cold_report.anonymized != resumed_report.anonymized:
            mismatches.append(f"{config.display_label}@k={config.k}: resumed output differs")
    if not mismatches and cold.as_dict() != resumed.as_dict():
        mismatches.append("resumed indicator series differ from the cold ones")
    return mismatches


@contextlib.contextmanager
def _environment(**variables: str) -> Iterator[None]:
    """Set environment variables for the duration of the block.

    (``unittest.mock.patch.dict`` would do, but importing it grows the
    measured process by ~4 MB.)
    """
    saved = {name: os.environ.get(name) for name in variables}
    os.environ.update(variables)
    try:
        yield
    finally:
        for name, value in saved.items():
            if value is None:
                del os.environ[name]
            else:
                os.environ[name] = value


def measure(
    name: str, seed: int, seconds: float, trace: bool, size: dict[str, int] | None = None
) -> tuple[dict, dict]:
    """Run one workload; return the result object and the details."""
    import gate
    from workloads import (
        WORKLOADS,
        cells_of,
        peak_rss_mb,
        repeat,
        scaled,
        set_up,
    )

    from repro.datasets.csv_io import save_csv
    from repro.frontend.session import Session

    workload = WORKLOADS[name]
    with tempfile.TemporaryDirectory(prefix=".perfbench-", dir=ROOT) as scratch, _environment(
        # The shared-memory segment registry, kept inside the checkout.
        REPRO_SHM_REGISTRY=str(Path(scratch) / "shm-registry")
    ):
        work = Path(scratch)
        generated = workload.generate(seed=seed, **(size or workload.size))
        schema = generated.schema
        csv_path = save_csv(generated, work / f"{name}.csv")
        del generated

        setups = []
        for _ in range(SETUP_REPEATS):
            # Keep only the last set-up's dataset alive: live objects from
            # earlier ones would slow every later collection.
            if setups:
                setups[-1].dataset = setups[-1].resources = None
            gc.collect()
            setups.append(set_up(workload, csv_path, schema, trace))
        setup = setups[-1]
        session = Session(setup.dataset)

        reps = []
        cell_failures: list[str] = []
        cells: list[dict] = []
        attempted = 0
        minimum = 4 if trace else 3
        started = time.perf_counter()
        while len(reps) < minimum or time.perf_counter() - started < seconds:
            traced = trace and len(reps) % 2 == 1
            gc.collect()
            rep = repeat(workload, session, setup.resources, work, traced)
            if not reps:
                # Peak memory of a fresh interpreter through one full call.
                peak_rss = peak_rss_mb(resource.RUSAGE_SELF)
                worker_peak_rss = peak_rss_mb(resource.RUSAGE_CHILDREN)
                gated = cells_of(workload, rep.output)
                attempted = len(gated)
                cell_failures += gate.failures(setup.dataset, gated, setup.resources.item_hierarchy)
                if rep.resumed is not None:
                    attempted *= 2
                    cell_failures += resume_mismatches(workload, rep.output, rep.resumed)
                cells = [
                    {"cell": cell.label, "are": cell.are, "gcp": cell.gcp, "ul": cell.ul}
                    for cell in gated
                ]
                del gated
            rep.output = rep.resumed = None
            reps.append(rep)

    failures = list(cell_failures)
    for count in EXACT_COUNTS:
        seen = {rep.counts[count] for rep in reps if count in rep.counts}
        if len(seen) > 1:
            failures.append(f"{count} differs between repetitions: {sorted(seen)}")
    failed = len(cell_failures)

    plain = [rep for rep in reps if not rep.traced]
    if trace:
        traced = [rep for rep in reps if rep.traced]
        values = {
            metric: statistics.median([{**rep.counts, **rep.layers}.get(metric, 0.0) for rep in traced])
            for metric in PER_LAYER
        }
        for metric in setups[0].layers:
            values[metric] = statistics.median([setup.layers[metric] for setup in setups])
        traced_wall = statistics.median([rep.wall_s for rep in traced])
        values["tracing_overhead_s"] = traced_wall - statistics.median([rep.wall_s for rep in plain])
        values["worker_peak_rss_mb"] = worker_peak_rss if workload.process else 0.0
        values["failed_frac"] = failed / attempted
        metrics = {metric: {"value": values[metric], "unit": unit} for metric, unit in PER_LAYER.items()}
    else:
        values = {
            "setup_s": statistics.median([scaled(setup.seconds, setup.reference_s) for setup in setups]),
            "wall_s": statistics.median([scaled(rep.wall_s, rep.reference_s) for rep in plain]),
            "cpu_s": statistics.median([scaled(rep.cpu_s, rep.reference_s) for rep in plain]),
            "peak_rss_mb": peak_rss,
        }
        metrics = {metric: {"value": values[metric], "unit": unit} for metric, unit in END_TO_END.items()}

    details = {
        "workload": name,
        "seed": seed,
        "held_out_seed": HELD_OUT_SEED,
        "repetitions": len(reps),
        "traced_repetitions": sum(rep.traced for rep in reps),
        "wall_s": [rep.wall_s for rep in reps],
        "reference_s": [rep.reference_s for rep in reps],
        "setup_reference_s": [setup.reference_s for setup in setups],
        "setup_s": [setup.seconds for setup in setups],
        "counts": reps[0].counts,
        "cells": cells,
        "failures": failures,
    }
    result = {
        "correct": not failures,
        "attempted": attempted,
        "failed": failed,
        "metrics": metrics,
    }
    return result, details


def _stop_resource_tracker() -> None:
    """Stop ``multiprocessing``'s resource-tracker process and reap it.

    Creating a shared-memory segment starts that helper process.  Left
    alone, it outlives the benchmark and lingers as an unreaped orphan
    after the benchmark exits; closing its pipe and waiting for it ends it
    inside the run.  (A no-op when no segment was ever created.)
    """
    from multiprocessing import resource_tracker

    resource_tracker._resource_tracker._stop()


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", help="eval-rt, compare-relational or compare-transaction-process")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--scaling", action="store_true", help="print the ungated scaling report")
    args = parser.parse_args(argv)

    source = ROOT / "src"
    if not (source / "repro").is_dir():
        print(f"perfbench: no program sources under {source}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(source))
    try:
        return _run(parser, args)
    finally:
        _stop_resource_tracker()


def _run(parser: argparse.ArgumentParser, args: argparse.Namespace) -> int:
    if args.scaling:
        import scaling

        scaling.report(args.seed)
        return 0
    if args.workload is None:
        parser.error("--workload is required unless --scaling is given")
    from workloads import WORKLOADS

    if args.workload not in WORKLOADS:
        parser.error(f"unknown workload {args.workload!r}; choose from {sorted(WORKLOADS)}")
    try:
        result, details = measure(args.workload, args.seed, args.seconds, bool(args.trace))
    except Exception:  # noqa: BLE001 - a raising Session call fails every cell of the run
        traceback.print_exc()
        cells = WORKLOADS[args.workload].cells_per_call()
        print(json.dumps({"correct": False, "attempted": cells, "failed": cells, "metrics": {}}))
        return 1
    print(json.dumps(details))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
