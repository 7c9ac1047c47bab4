"""Micro-benchmark: bitset attack kernels' speedup over the scalar oracle.

Measures the re-identification attack simulator (:mod:`repro.attacks`) on a
50k-record RT-dataset, anonymized in the style of a cluster + item-grouping
run (interval labels on numerics, value groups on categoricals, item-triple
groups with a root ``*`` tail):

* **qi** — :func:`qi_attack`: per-record QI matching sets.  Baseline: the
  per-record Python-set oracle (``tests/oracles/attacks.py``, the REP003
  semantic reference).  Kernel: per-value cover bitsets gathered through the columnar
  code arrays, chunked AND + popcount.
* **item** — :func:`item_attack` at ``m = 2``: worst item-combination
  matching sets over the km checker's candidate bitsets versus the oracle's
  frozenset algebra (both memoize per distinct basket and combination).
* **rt** — :func:`rt_attack` at ``m = 2``: the combined adversary.  The
  oracle intersects each target's QI matching set with every candidate
  combination one record at a time, so this leg runs on a smaller dataset.

Every comparison asserts the kernel's :class:`AttackResult` equals the
oracle's *as a dataclass* — match sizes, empirical k̂, risks, witnesses —
at benchmark scale, not just on the Hypothesis instances.  Besides asserting
the >= 5x acceptance bar on the QI and RT attacks, the run writes a
machine-readable ``BENCH_attack.json`` at the repository root (seconds and
speedups per attack) so the repo carries a perf trajectory file.

Run standalone::

    PYTHONPATH=src python benchmarks/bench_attacks.py

or through pytest (only collected when addressed explicitly)::

    python -m pytest benchmarks/bench_attacks.py -m slow -s
"""

from __future__ import annotations

import json
import os
import sys
import time
from pathlib import Path

import pytest

from repro.attacks import item_attack, qi_attack, rt_attack
from repro.datasets import generate_rt_dataset
from repro.hierarchy.builders import format_interval

REPO_ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(REPO_ROOT / "tests"))
from oracles import attacks as oracle  # noqa: E402  (the oracle lives with the tests)
TRAJECTORY_FILE = REPO_ROOT / "BENCH_attack.json"

N_RECORDS = 50_000
RT_RECORDS = 20_000
M = 2
REQUIRED_SPEEDUP = 5.0


# -- workload construction --------------------------------------------------------
def generalized_copy(dataset):
    """A cluster + item-grouping output: intervals, groups, root ``*`` tails."""
    anonymized = dataset.copy(name=f"{dataset.name}[generalized]")
    for attribute in dataset.schema.relational:
        if not attribute.quasi_identifier:
            continue
        name = attribute.name
        if attribute.is_numeric:
            anonymized.map_column(
                name,
                lambda value: (
                    None
                    if value is None
                    else format_interval(
                        10 * (int(value) // 10), 10 * (int(value) // 10) + 9
                    )
                ),
            )
        else:
            domain = sorted({str(v) for v in dataset.column(name) if v is not None})
            groups = [domain[n : n + 3] for n in range(0, len(domain), 3)]
            mapping = {}
            for position, group in enumerate(groups):
                label = "(" + ",".join(group) + ")" if len(group) > 1 else group[0]
                for value in group:
                    mapping[value] = label
            anonymized.map_column(name, lambda value: mapping.get(value, value))
    # Item side: group every third item triple, root-generalize the tail.
    transaction_attribute = dataset.schema.transaction_names[0]
    universe = sorted(dataset.item_universe(transaction_attribute))
    item_mapping: dict[str, str] = {}
    for position in range(0, len(universe) - 6, 3):
        triple = universe[position : position + 3]
        label = "(" + ",".join(triple) + ")"
        for item in triple:
            item_mapping[item] = label
    for item in universe[-6:]:
        item_mapping[item] = "*"
    anonymized.map_column(
        transaction_attribute,
        lambda itemset: {item_mapping.get(item, item) for item in itemset},
    )
    return anonymized


def timed_best(function, *args, repeats: int = 3, **kwargs):
    """(result, best-of-``repeats`` wall time) for a steady-state measurement."""
    best = float("inf")
    result = None
    for _ in range(repeats):
        start = time.perf_counter()
        result = function(*args, **kwargs)
        best = min(best, time.perf_counter() - start)
    return result, best


# -- main -------------------------------------------------------------------------
def run_benchmark(
    n_records: int = N_RECORDS,
    rt_records: int = RT_RECORDS,
    scan_repeats: int = 1,
    kernel_repeats: int = 3,
) -> dict:
    original = generate_rt_dataset(n_records=n_records, n_items=40, seed=2014)
    anonymized = generalized_copy(original)

    entries: dict[str, dict] = {}

    def measure(name: str, attack, scalar_attack, *args, **kwargs) -> None:
        oracle_result, oracle_seconds = timed_best(
            scalar_attack, *args, repeats=scan_repeats, **kwargs
        )
        kernel_result, kernel_seconds = timed_best(
            attack, *args, repeats=kernel_repeats, **kwargs
        )
        # Bit-identical as dataclasses, not approximately: the REP003
        # contract holds at benchmark scale too.
        assert kernel_result == oracle_result
        entries[name] = {
            "baseline_seconds": oracle_seconds,
            "kernel_seconds": kernel_seconds,
            "speedup": oracle_seconds / kernel_seconds,
            "empirical_k": kernel_result.empirical_k,
            "matched": kernel_result.matched,
            "records": kernel_result.n_records,
        }

    measure("qi", qi_attack, oracle.qi_attack, original, anonymized)
    measure("item", item_attack, oracle.item_attack, original, anonymized, M)

    rt_original = generate_rt_dataset(n_records=rt_records, n_items=40, seed=2014)
    measure(
        "rt", rt_attack, oracle.rt_attack, rt_original, generalized_copy(rt_original), M
    )

    return {
        "dataset": {
            "n_records": n_records,
            "rt_records": rt_records,
            "m": M,
            "items": len(original.item_universe("Items")),
        },
        **entries,
    }


def write_trajectory(payload: dict) -> Path:
    TRAJECTORY_FILE.write_text(
        json.dumps(payload, indent=2, sort_keys=True) + "\n", encoding="utf-8"
    )
    return TRAJECTORY_FILE


@pytest.mark.slow
def test_attack_kernel_speedup(record):
    payload = run_benchmark()
    record("attacks", payload)
    write_trajectory(payload)
    assert payload["qi"]["speedup"] >= REQUIRED_SPEEDUP
    assert payload["item"]["speedup"] >= REQUIRED_SPEEDUP
    assert payload["rt"]["speedup"] >= REQUIRED_SPEEDUP


def test_attack_equivalence_smoke():
    """Fast CI smoke: oracle and kernel agree on a small dataset.

    In CI (``CI`` set) the small-size payload is also written to
    ``BENCH_attack.json`` so the workflow can upload it as an artifact; local
    test runs leave the committed 50k-record trajectory untouched.
    """
    payload = run_benchmark(
        n_records=2_000, rt_records=1_000, scan_repeats=1, kernel_repeats=1
    )
    if os.environ.get("CI"):
        write_trajectory(payload)
    # run_benchmark asserts oracle/kernel equality internally; sanity-check
    # the payload shape here.
    for name in ("qi", "item", "rt"):
        assert payload[name]["baseline_seconds"] > 0.0
        assert payload[name]["empirical_k"] is not None


if __name__ == "__main__":
    result = run_benchmark()
    path = write_trajectory(result)
    print(
        f"dataset: {result['dataset']['n_records']} records "
        f"({result['dataset']['rt_records']} for rt), "
        f"{result['dataset']['items']} items, m={result['dataset']['m']}"
    )
    for name in ("qi", "item", "rt"):
        attack = result[name]
        print(
            f"{name}: baseline {attack['baseline_seconds']:.3f}s, "
            f"kernel {attack['kernel_seconds']:.3f}s, "
            f"speedup {attack['speedup']:.1f}x (k-hat={attack['empirical_k']})"
        )
    print(f"trajectory written to {path}")
