"""A run completes its resources once, in the orchestrating process.

Before it derives keys and fans out, a sweep or comparison completes its
resources for every configuration, so worker processes receive complete
resources and never regenerate any.  The query workload is the costliest of
them; this guard counts ``generate_query_workload`` calls during
process-mode runs.

With the ``fork`` start method the workers inherit the counting hook, and it
records their calls in a file; with another start method only the parent's
are counted.
"""

from __future__ import annotations

import pytest

from repro import Session, transaction_config
from repro.datasets import generate_market_basket
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
