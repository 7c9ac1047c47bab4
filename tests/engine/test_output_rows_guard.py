"""No algorithm's output builds its rows in a run.

Every algorithm publishes its output as columns: a transaction algorithm as
a remapped CSR column, a relational one as code arrays per attribute, an RT
bounding method as both.  Every indicator the Comparison mode computes on it
(GCP, UL, ARE, item-frequency error, the privacy status) reads columns only;
a process-mode result and a checkpointed cell cross back to the parent as
columns as well.  So do the Evaluation mode's checks: k-anonymity counts
classes on the code arrays, and k^m and (k, k^m) read the candidate records
off the output's postings, class by class.  Building the output's ``Record``
rows anywhere in that pipeline is pure waste, so this guard counts
``Dataset._materialize`` calls during a verified evaluation and a sequential
and a process-mode comparison of the five transaction algorithms, the four
relational ones and the three RT bounding methods, and asserts that none of
them was for an output (or for a relational algorithm's output inside RT).

With the ``fork`` start method the workers inherit the counting hook, and it
records their row builds in a file; with another start method only the
parent's are counted.
"""

from __future__ import annotations

import pytest

from repro import Session, relational_config, rt_config, transaction_config
from repro.datasets import Dataset, generate_adult_like, generate_market_basket, generate_rt_dataset
from repro.engine import CheckpointStore

ALGORITHMS = ("apriori", "lra", "vpa", "pcta", "coat")
RELATIONAL = ("incognito", "top-down", "cluster", "full-subtree")
BOUNDING = ("rmerger", "tmerger", "rtmerger")
#: Every output name, and the names relational outputs carry on the way.
OUTPUT_SUFFIXES = tuple(
    f"[{name}]" for name in (*ALGORITHMS, *RELATIONAL, *BOUNDING, "full-domain")
)


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


def assert_no_output_built(report, names: list[str], cells: int = len(ALGORITHMS) * 2) -> None:
    published = outputs(report)
    assert len(published) == cells
    assert all("_records" not in vars(dataset) for dataset in published)
    assert [name for name in names if name.endswith(OUTPUT_SUFFIXES)] == []


def relational_session() -> Session:
    return Session(generate_adult_like(n_records=200, seed=5))


def rt_session() -> Session:
    return Session(generate_rt_dataset(n_records=200, n_items=20, seed=5))


def mixed_comparisons():
    """(session, configurations) of the relational and the RT comparison."""
    return [
        (relational_session(), [relational_config(name, k=5) for name in RELATIONAL]),
        (
            rt_session(),
            [rt_config("cluster", "apriori", bounding=name, k=5, m=2) for name in BOUNDING]
            + [rt_config("incognito", "apriori", bounding="rmerger", k=5, m=2)],
        ),
    ]


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


@pytest.mark.parametrize("algorithm", RELATIONAL)
def test_verified_relational_evaluation_builds_no_output_rows(built, algorithm):
    facade = relational_session()
    facade.verify_privacy = True
    report = facade.evaluate(relational_config(algorithm, k=5))
    assert report.privacy["k_anonymous"] is True
    assert "_records" not in vars(report.anonymized)
    assert [name for name in built() if name.endswith(OUTPUT_SUFFIXES)] == []


@pytest.mark.parametrize("relational", ["cluster", "incognito"])
@pytest.mark.parametrize("bounding", BOUNDING)
def test_verified_rt_evaluation_builds_no_output_rows(built, bounding, relational):
    facade = rt_session()
    facade.verify_privacy = True
    report = facade.evaluate(rt_config(relational, "apriori", bounding=bounding, k=5, m=2))
    assert report.privacy["k_anonymous"] is True
    assert report.privacy["k_km_anonymous"] is True
    assert "_records" not in vars(report.anonymized)
    assert [name for name in built() if name.endswith(OUTPUT_SUFFIXES)] == []


def test_sequential_relational_and_rt_comparisons_build_no_output_rows(built):
    for facade, configs in mixed_comparisons():
        report = facade.compare(configs, "k", 5, 10, 5)
        assert_no_output_built(report, built(), cells=len(configs) * 2)


def test_process_relational_and_rt_comparisons_build_no_output_rows(built, tmp_path):
    for position, (facade, configs) in enumerate(mixed_comparisons()):
        store = tmp_path / f"store-{position}"
        with facade.worker_pool(max_workers=2) as pool:
            cold = facade.compare(
                configs, "k", 5, 10, 5, mode="process", pool=pool,
                checkpoint=CheckpointStore(store),
            )
            resumed = facade.compare(
                configs, "k", 5, 10, 5, mode="process", pool=pool,
                checkpoint=CheckpointStore(store),
            )
        assert_no_output_built(cold, built(), cells=len(configs) * 2)
        assert_no_output_built(resumed, built(), cells=len(configs) * 2)
        assert [d.fingerprint() for d in outputs(resumed)] == [
            d.fingerprint() for d in outputs(cold)
        ]
