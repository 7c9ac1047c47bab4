"""ARE on every registered anonymizer's output: kernel path vs per-record scan.

``average_relative_error`` answers each query through the columnar kernels;
``oracles.queries.average_relative_error_scan`` answers it with the
per-record scans.  The two must agree exactly — ARE value and every
per-query actual/estimate — on what each of the nine anonymizers and the
three RT bounding methods actually produce, with and without a domains
snapshot.
"""

import pytest

from oracles.queries import are_without_domains, average_relative_error_scan
from repro.algorithms.registry import algorithm_names, bounding_methods
from repro.datasets import generate_rt_dataset
from repro.engine import (
    AnonymizationModule,
    ExperimentResources,
    relational_config,
    rt_config,
    transaction_config,
)
from repro.queries import average_relative_error, generate_query_workload

CONFIGS = {
    **{name: relational_config(name, k=10) for name in algorithm_names("relational")},
    **{
        name: transaction_config(name, k=10, m=2)
        for name in algorithm_names("transaction")
    },
    **{
        name: rt_config("cluster", "apriori", bounding=name, k=10, m=2)
        for name in bounding_methods()
    },
}


@pytest.fixture(scope="module")
def scenario():
    rt = generate_rt_dataset(n_records=80, n_items=10, seed=2014)
    workload = generate_query_workload(rt, n_queries=20, seed=7)
    return rt, workload


@pytest.mark.parametrize("name", sorted(CONFIGS))
def test_kernel_are_equals_the_per_record_scan(scenario, name):
    rt, workload = scenario
    config = CONFIGS[name]
    resources = ExperimentResources.prepare(rt, config, workload=workload)
    anonymized = AnonymizationModule(rt, resources).run(config).dataset
    transaction_attribute = "Items" if config.transaction_algorithm else None
    hierarchies = resources.hierarchies_with_items(transaction_attribute)
    kernel = average_relative_error(
        workload, rt, anonymized, hierarchies, domains=resources.domains
    )
    scan = average_relative_error_scan(
        workload, rt, anonymized, hierarchies, domains=resources.domains
    )
    without_kernel = are_without_domains(workload, rt, anonymized, hierarchies)
    without_scan = are_without_domains(
        workload, rt, anonymized, hierarchies, scan=True
    )
    for kernel, scan in ((kernel, scan), (without_kernel, without_scan)):
        assert kernel.are == scan.are
        assert [(e.actual, e.estimate) for e in kernel.per_query] == [
            (e.actual, e.estimate) for e in scan.per_query
        ]
