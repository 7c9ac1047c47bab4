"""A run resolves its resources once, in the orchestrating process.

Before it derives keys and fans out, a sweep or comparison resolves the
resources of every cell, so worker processes receive complete resources and
never generate any.  The query workload is the costliest of them; the first
guard counts ``generate_query_workload`` calls during process-mode runs.
The second counts every other generator called inside the workers.

With the ``fork`` start method the workers inherit the counting hooks, and
they record their calls in a file; with another start method only the
parent's are counted.
"""

from __future__ import annotations

import multiprocessing
import os

import pytest

from repro import Session, rt_config, transaction_config
from repro.datasets import generate_market_basket, generate_rt_dataset
from repro.engine import ExperimentResources
from repro.engine import resources as resources_module

ALGORITHMS = ("apriori", "lra", "vpa", "pcta", "coat")


@pytest.fixture
def generations(monkeypatch, tmp_path):
    """Number of workloads generated so far, in this process and in forked workers."""
    log = tmp_path / "generated.txt"
    original = resources_module.generate_query_workload

    def counting(*args, **kwargs):
        with open(log, "a", encoding="utf-8") as handle:
            handle.write("generated\n")
        return original(*args, **kwargs)

    monkeypatch.setattr(resources_module, "generate_query_workload", counting)

    def count() -> int:
        return len(log.read_text(encoding="utf-8").splitlines()) if log.exists() else 0

    return count


def test_process_runs_generate_the_workload_once_per_call(generations):
    dataset = generate_market_basket(n_records=200, n_items=20, seed=5)
    session = Session(dataset)
    configs = [transaction_config(name, k=5, m=2) for name in ALGORITHMS]
    with session.worker_pool(max_workers=2) as pool:
        session.compare(configs, "k", 5, 10, 5, mode="process", pool=pool)
        assert generations() == 1
        session.sweep(configs[0], "k", 5, 10, 5, mode="process", pool=pool)
        assert generations() == 2

        resources = ExperimentResources.prepare(dataset, configs[0])
        for config in configs[1:]:
            resources.ensure_for(dataset, config)
        before = generations()
        session.compare(configs, "k", 5, 10, 5, resources=resources, mode="process", pool=pool)
        session.sweep(configs[0], "k", 5, 10, 5, resources=resources, mode="process", pool=pool)
        assert generations() == before


#: Every generator a resolution may call, by its name in ``repro.engine.resources``.
GENERATORS = (
    "build_hierarchies_for_dataset",
    "build_item_hierarchy",
    "generate_privacy_policy",
    "generate_utility_policy",
    "generate_query_workload",
)


@pytest.mark.skipif(
    multiprocessing.get_start_method() != "fork",
    reason="workers inherit the counting hooks only when they are forked",
)
def test_workers_generate_nothing(monkeypatch, tmp_path):
    log = tmp_path / "calls.txt"

    def counting(name, original):
        def wrapper(*args, **kwargs):
            with open(log, "a", encoding="utf-8") as handle:
                handle.write(f"{os.getpid()} {name}\n")
            return original(*args, **kwargs)

        return wrapper

    for name in GENERATORS:
        monkeypatch.setattr(
            resources_module, name, counting(name, getattr(resources_module, name))
        )
    # Resolutions run in the workers too: they show that the hooks reach them.
    monkeypatch.setattr(
        ExperimentResources,
        "for_config",
        counting("for_config", ExperimentResources.for_config),
    )
    basket = generate_market_basket(n_records=200, n_items=20, seed=5)
    rt = generate_rt_dataset(n_records=200, n_items=20, seed=5)
    runs = [
        (basket, [transaction_config(name, k=5, m=2) for name in ALGORITHMS]),
        (rt, [rt_config("cluster", "coat", k=5, m=2), rt_config("incognito", "apriori", k=5, m=2)]),
    ]
    for dataset, configs in runs:
        session = Session(dataset)
        with session.worker_pool(max_workers=2) as pool:
            session.compare(configs, "k", 5, 10, 5, mode="process", pool=pool)

    calls = [line.split() for line in log.read_text(encoding="utf-8").splitlines()]
    parent = str(os.getpid())
    in_workers = [name for pid, name in calls if pid != parent]
    assert "for_config" in in_workers
    assert [name for name in in_workers if name != "for_config"] == []
    assert {name for pid, name in calls if pid == parent} == {*GENERATORS, "for_config"}
