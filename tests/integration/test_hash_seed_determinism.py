"""Outputs and indicators do not depend on the interpreter's hash seed.

``frozenset`` and ``set`` iteration order follows ``PYTHONHASHSEED``, and a
kernel that lays out tokens, sums charges or picks ties in that order gives
a different table or a number that differs in the last ulps from one
interpreter to the next (it broke byte-identical checkpoint resume once).
This test runs every registered configuration — the four relational
algorithms, the five transaction algorithms and the three RT bounding
methods — in one subprocess per hash seed, with the attacks on, and
requires the same output fingerprint and the same indicators from each.
A second script estimates a workload of 4-item queries on the five
transaction algorithms' outputs: a product of three or more item factors
depends on the order the items are multiplied in.
"""

from __future__ import annotations

import os
import subprocess
import sys
from pathlib import Path

SRC = Path(__file__).resolve().parents[2] / "src"

SCRIPT = """
from repro import Session
from repro.algorithms.registry import (
    bounding_methods, relational_algorithms, transaction_algorithms,
)
from repro.datasets import generate_adult_like, generate_market_basket, generate_rt_dataset
from repro.engine import relational_config, rt_config, transaction_config

runs = (
    [(generate_adult_like(n_records=200, seed=3), relational_config(name, k=5))
     for name in relational_algorithms()]
    # k=20: at k=5 and k=10 COAT and PCTA publish this data unchanged.
    + [(generate_market_basket(n_records=200, n_items=20, seed=3),
        transaction_config(name, k=20, m=2))
       for name in transaction_algorithms()]
    + [(generate_rt_dataset(n_records=200, n_items=20, seed=3),
        rt_config("cluster", "apriori", bounding=name, k=5, m=2))
       for name in bounding_methods()]
)
for dataset, config in runs:
    report = Session(dataset).evaluate(config, simulate_attacks=True)
    print(repr((
        report.configuration.get("label"),
        report.anonymized.fingerprint(),
        report.are,
        report.utility,
        report.privacy,
        report.generalized_value_frequencies,
        report.item_frequency_errors,
        report.attacks,
    )))
"""


ESTIMATES_SCRIPT = """
import hashlib

from repro import Session
from repro.algorithms.registry import transaction_algorithms
from repro.datasets import generate_market_basket
from repro.engine import transaction_config
from repro.queries import average_relative_error, generate_query_workload

dataset = generate_market_basket(n_records=800, n_items=60, seed=3)
workload = generate_query_workload(dataset, n_queries=200, n_items=4, seed=3)
session = Session(dataset)
for name in transaction_algorithms():
    for k in (5, 20):
        resources = session.resources(workload=workload)
        report = session.evaluate(transaction_config(name, k=k, m=2), resources=resources)
        result = average_relative_error(
            workload, dataset, report.anonymized,
            hierarchies=resources.hierarchies_with_items("Items"),
            domains=resources.domains,
        )
        estimates = repr([entry.estimate for entry in result.per_query])
        print(name, k, repr(report.are), hashlib.sha256(estimates.encode()).hexdigest())
"""


def run_with_hash_seed(seed: int, script: str = SCRIPT) -> list[str]:
    env = dict(os.environ, PYTHONHASHSEED=str(seed))
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    completed = subprocess.run(
        [sys.executable, "-c", script],
        env=env,
        capture_output=True,
        text=True,
        timeout=600,
        check=False,
    )
    assert completed.returncode == 0, completed.stderr
    return completed.stdout.splitlines()


def test_every_configuration_is_identical_across_hash_seeds():
    reference = run_with_hash_seed(0)
    assert len(reference) == 12
    assert len({line.split(",")[0] for line in reference}) == 12
    for seed in (1, 2):
        lines = run_with_hash_seed(seed)
        for expected, observed in zip(reference, lines, strict=True):
            assert observed == expected


def test_four_item_query_estimates_are_identical_across_hash_seeds():
    reference = run_with_hash_seed(0, ESTIMATES_SCRIPT)
    assert len(reference) == 10
    for seed in (1, 2):
        assert run_with_hash_seed(seed, ESTIMATES_SCRIPT) == reference
