"""The transaction algorithms' outputs never build their rows in a run.

A transaction algorithm publishes its output as a remapped CSR column, and
every indicator the Comparison mode computes on it (UL, ARE, item-frequency
error, the privacy status) reads columns only; a process-mode result and a
checkpointed cell cross back to the parent as columns as well.  So does the
k^m verification of the Evaluation mode, which reads the candidate records
off the output's postings.  Building the output's ``Record`` rows anywhere
in that pipeline is pure waste, so this guard counts ``Dataset._materialize``
calls during a verified evaluation and a sequential and a process-mode
comparison of the five transaction algorithms and asserts that none of them
was for an output.

With the ``fork`` start method the workers inherit the counting hook, and it
records their row builds in a file; with another start method only the
parent's are counted.
"""

from __future__ import annotations

import pytest

from repro import Session, transaction_config
from repro.datasets import Dataset, generate_market_basket
from repro.engine import CheckpointStore

ALGORITHMS = ("apriori", "lra", "vpa", "pcta", "coat")


@pytest.fixture
def built(monkeypatch, tmp_path):
    """Names of the datasets whose rows get built, in this process and in forked workers."""
    log = tmp_path / "materialized.txt"
    original = Dataset._materialize

    def counting(self):
        if "_records" not in vars(self):
            with open(log, "a", encoding="utf-8") as handle:
                handle.write(f"{self.name}\n")
        return original(self)

    monkeypatch.setattr(Dataset, "_materialize", counting)

    def names() -> list[str]:
        return log.read_text(encoding="utf-8").splitlines() if log.exists() else []

    return names


def session() -> Session:
    dataset = generate_market_basket(n_records=200, n_items=20, seed=5)
    return Session(dataset)


def outputs(report) -> list[Dataset]:
    return [cell.anonymized for sweep in report.sweeps for cell in sweep.reports]


def assert_no_output_built(report, names: list[str]) -> None:
    published = outputs(report)
    assert len(published) == len(ALGORITHMS) * 2
    assert all("_records" not in vars(dataset) for dataset in published)
    suffixes = tuple(f"[{algorithm}]" for algorithm in ALGORITHMS)
    assert [name for name in names if name.endswith(suffixes)] == []


@pytest.mark.parametrize("algorithm", ALGORITHMS)
def test_verified_evaluation_builds_no_output_rows(built, algorithm):
    facade = session()
    facade.verify_privacy = True
    report = facade.evaluate(transaction_config(algorithm, k=5, m=2))
    assert report.privacy["km_anonymous"] is not None
    assert "_records" not in vars(report.anonymized)
    assert [name for name in built() if name.endswith(f"[{algorithm}]")] == []


def test_sequential_comparison_builds_no_output_rows(built):
    configs = [transaction_config(name, k=5, m=2) for name in ALGORITHMS]
    report = session().compare(configs, "k", 5, 10, 5)
    assert_no_output_built(report, built())


def test_process_comparison_builds_no_output_rows(built, tmp_path):
    configs = [transaction_config(name, k=5, m=2) for name in ALGORITHMS]
    facade = session()
    store = tmp_path / "store"
    with facade.worker_pool(max_workers=2) as pool:
        cold = facade.compare(
            configs, "k", 5, 10, 5, mode="process", pool=pool,
            checkpoint=CheckpointStore(store),
        )
        resumed = facade.compare(
            configs, "k", 5, 10, 5, mode="process", pool=pool,
            checkpoint=CheckpointStore(store),
        )
    assert_no_output_built(cold, built())
    assert_no_output_built(resumed, built())
    assert [d.fingerprint() for d in outputs(resumed)] == [
        d.fingerprint() for d in outputs(cold)
    ]
