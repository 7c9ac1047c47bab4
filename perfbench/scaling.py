"""Ungated scaling report: time against dataset size, with fitted exponents.

Runs ``eval-rt``'s configuration and ``compare-relational``'s cluster and
Incognito algorithms (at k=10) once at each size, through the same CSV
round trip and ``Session.evaluate`` as the gated workloads, with privacy
verification and attacks off so the algorithm dominates.  Prints the
algorithm time (``runtime_seconds``), the wall time of the call and the
exponent b of a least-squares fit ``time ≈ a·n^b``.  It runs once and is
never gated.
"""

from __future__ import annotations

import json
import math
import tempfile
import time
from pathlib import Path

from workloads import WORKLOADS

from repro.datasets.csv_io import load_csv, save_csv
from repro.engine.config import relational_config
from repro.engine.resources import ExperimentResources
from repro.frontend.session import Session

SIZES = (2500, 5000, 10000, 20000)


def fitted_exponent(sizes: list[int], seconds: list[float]) -> float:
    """Slope of log(seconds) against log(size)."""
    xs = [math.log(size) for size in sizes]
    ys = [math.log(value) for value in seconds]
    x_mean, y_mean = sum(xs) / len(xs), sum(ys) / len(ys)
    covariance = sum((x - x_mean) * (y - y_mean) for x, y in zip(xs, ys))
    return covariance / sum((x - x_mean) ** 2 for x in xs)


def report(seed: int) -> None:
    rt = WORKLOADS["eval-rt"]
    relational = WORKLOADS["compare-relational"]
    cases = (
        ("RT cluster+apriori/rtmerger", rt, rt.configs[0]),
        ("relational cluster", relational, relational_config("cluster", k=10)),
        ("Incognito", relational, relational_config("incognito", k=10)),
    )
    rows = []
    root = Path(__file__).resolve().parent.parent
    with tempfile.TemporaryDirectory(prefix=".perfbench-", dir=root) as scratch:
        for label, workload, config in cases:
            algorithm, wall = [], []
            for size in SIZES:
                generated = workload.generate(seed=seed, **{**workload.size, "n_records": size})
                path = save_csv(generated, Path(scratch) / f"scaling-{size}.csv")
                dataset = load_csv(path, schema=generated.schema)
                del generated
                resources = ExperimentResources.prepare(dataset, config)
                session = Session(dataset)
                session.verify_privacy = False
                started = time.perf_counter()
                evaluation = session.evaluate(config, resources=resources)
                wall.append(time.perf_counter() - started)
                algorithm.append(evaluation.runtime_seconds)
                print(f"{label} n={size}: algorithm {algorithm[-1]:.2f} s, wall {wall[-1]:.2f} s", flush=True)
            rows.append(
                {
                    "configuration": label,
                    "sizes": list(SIZES),
                    "algorithm_s": algorithm,
                    "wall_s": wall,
                    "algorithm_exponent": fitted_exponent(list(SIZES), algorithm),
                    "wall_exponent": fitted_exponent(list(SIZES), wall),
                }
            )
    header = " | ".join(f"{size // 1000 if size % 1000 == 0 else size / 1000}k" for size in SIZES)
    print(f"| configuration | {header} | growth |")
    print("|---" * (len(SIZES) + 2) + "|")
    for row in rows:
        cells = " | ".join(f"{seconds:.2f} s" for seconds in row["algorithm_s"])
        print(f"| {row['configuration']} | {cells} | ≈n^{row['algorithm_exponent']:.1f} |")
    print(json.dumps({"seed": seed, "scaling": rows}))
