"""Cross-mode equivalence: sequential and process runs are identical.

The execution mode is an operational choice, never a semantic one: for a
seeded experiment, the anonymized outputs and every reported metric must be
byte-identical whether the sweep points run in this process or in worker
processes attached to the shared-memory dataset export.
This is the black-box isolation check for the fan-out subsystem: if the
shared-memory reconstruction dropped a cell, reordered records, or leaked
worker state between tasks, the fingerprints below would diverge.

Four algorithm families are covered: COAT and PCTA (constraint-based
transaction), greedy clustering (relational), and the RT bounding
combination.
"""

from __future__ import annotations

from multiprocessing import shared_memory

import pytest

from chaos import ChaosPool
from repro.datasets import generate_rt_dataset
from repro.engine import (
    Execution,
    ExecutionPolicy,
    MethodComparator,
    ParameterSweep,
    VaryingParameterExperiment,
    WorkerPool,
    relational_config,
    transaction_config,
    rt_config,
)

MODES = ("sequential", "process")

CONFIGS = [
    pytest.param(transaction_config("coat", k=3, m=2), id="coat"),
    pytest.param(transaction_config("pcta", k=3, m=2), id="pcta"),
    pytest.param(relational_config("cluster", k=3), id="cluster"),
    pytest.param(
        rt_config("cluster", "apriori", k=3, m=2, delta=0.5), id="rt-bounding"
    ),
]

SWEEP = ParameterSweep("k", (3, 4))


@pytest.fixture(scope="module")
def dataset():
    return generate_rt_dataset(n_records=80, n_items=16, seed=41)


def fingerprint(sweep_result) -> list[tuple]:
    """Everything a report states except wall-clock times."""
    return [
        (
            report.result.dataset.to_rows(),
            report.result.dataset.schema.names,
            report.utility,
            report.privacy,
            report.are,
            report.generalized_value_frequencies,
            report.item_frequency_errors,
            report.attacks,
        )
        for report in sweep_result.reports
    ]


def run_in_mode(dataset, config, mode: str, simulate_attacks: bool = False):
    # A fresh experiment (and freshly generated resources) per mode: nothing
    # may leak between executions through shared resource objects.
    experiment = VaryingParameterExperiment(
        dataset,
        execution=Execution(mode=mode, max_workers=2),
        simulate_attacks=simulate_attacks,
    )
    return experiment.run(config, SWEEP)


@pytest.mark.parametrize("config", CONFIGS)
def test_modes_produce_identical_results(dataset, config):
    reference = fingerprint(run_in_mode(dataset, config, "sequential"))
    for mode in MODES[1:]:
        assert fingerprint(run_in_mode(dataset, config, mode)) == reference, (
            f"{mode} mode diverged from sequential for {config.display_label}"
        )


def test_attack_simulation_is_identical_across_modes(dataset):
    """Simulated attacks (AttackResult dataclasses included) never depend on
    the execution mode: the RT configuration runs all three adversaries in
    every mode and the full fingerprints — match sizes, empirical k,
    witnesses — must be equal."""
    config = rt_config("cluster", "apriori", k=3, m=2, delta=0.5)
    reference = run_in_mode(dataset, config, "sequential", simulate_attacks=True)
    assert all(
        sorted(report.attacks) == ["item", "qi", "rt"]
        for report in reference.reports
    )
    expected = fingerprint(reference)
    for mode in MODES[1:]:
        assert (
            fingerprint(run_in_mode(dataset, config, mode, simulate_attacks=True))
            == expected
        ), f"{mode} mode diverged from sequential with attacks enabled"


def test_persistent_pool_matches_sequential_across_sweeps(dataset):
    """One pool reused across several sweeps still matches sequential runs."""
    configs = [
        transaction_config("coat", k=3, m=2),
        relational_config("cluster", k=3),
    ]
    sequential = [
        fingerprint(run_in_mode(dataset, config, "sequential")) for config in configs
    ]
    with WorkerPool(max_workers=2) as pool:
        pooled = [
            fingerprint(
                VaryingParameterExperiment(
                    dataset, execution=Execution(mode="process", pool=pool)
                ).run(
                    config, SWEEP
                )
            )
            for config in configs
        ]
        segments = pool.segment_names()
        # Both sweeps reuse one export of the (unmutated) dataset.
        assert len(segments) == 1
    assert pooled == sequential


def test_one_configuration_comparison_fans_out_per_cell(dataset):
    """The unit of work is one (configuration, value) cell: a process-mode
    comparison of a single configuration still runs its four values in the
    workers, and matches the sequential run."""
    config = transaction_config("coat", k=3, m=2)
    sweep = ParameterSweep("k", (3, 4, 5, 6))
    sequential = MethodComparator(dataset).compare([config], sweep)
    with WorkerPool(max_workers=2) as pool:
        parallel = MethodComparator(
            dataset, execution=Execution(mode="process", pool=pool)
        ).compare([config], sweep)
    report = parallel.run_report
    assert report is not None
    assert report.backend == "process"
    assert len(report.tasks) == len(sweep)
    assert all(task.final_backend == "process" for task in report.tasks)
    assert fingerprint(parallel.sweeps[0]) == fingerprint(sequential.sweeps[0])


def test_comparison_resources_are_the_same_in_every_mode(dataset):
    """The resources are completed once, before any cell runs: a process
    worker sees the same hierarchies a sequential cell does, even when the
    configurations ask for different hierarchy fan-outs."""
    configs = [
        relational_config("top-down", k=3).replace(hierarchy_fanout=4),
        relational_config("top-down", k=3).replace(hierarchy_fanout=2),
    ]
    sequential = MethodComparator(dataset).compare(configs, SWEEP)
    parallel = MethodComparator(
        dataset, execution=Execution(mode="process", max_workers=2)
    ).compare(configs, SWEEP)
    assert [fingerprint(sweep) for sweep in parallel.sweeps] == [
        fingerprint(sweep) for sweep in sequential.sweeps
    ]


def test_mixed_int_float_cells_do_not_diverge():
    """Dict-equal but type-distinct cells (25 vs 25.0) feed the clustering
    cost model through ``string_codes()``; the shared-memory reconstruction
    must keep them apart or process mode would cluster differently."""
    from repro.datasets import Attribute, Dataset, Schema

    schema = Schema([Attribute.numeric("Age"), Attribute.categorical("Zip")])
    rows = [
        {"Age": (25 if position % 2 else 25.0) + position // 2, "Zip": f"z{position % 4}"}
        for position in range(24)
    ]
    mixed = Dataset(schema, rows, name="mixed-cells")
    config = relational_config("cluster", k=3)
    reference = fingerprint(run_in_mode(mixed, config, "sequential"))
    assert fingerprint(run_in_mode(mixed, config, "process")) == reference


def test_process_mode_unlinks_segments(dataset):
    """After pool shutdown no named shared-memory segment survives."""
    with WorkerPool(max_workers=1) as pool:
        experiment = VaryingParameterExperiment(
            dataset, execution=Execution(mode="process", pool=pool)
        )
        experiment.run(transaction_config("coat", k=3, m=2), SWEEP)
        segments = pool.segment_names()
        assert segments
    for name in segments:
        with pytest.raises(FileNotFoundError):
            shared_memory.SharedMemory(name=name)


# ---------------------------------------------------------------------------
# Chaos equivalence: the strongest form of the cross-mode guarantee.  A sweep
# whose workers crash, hang, or break the whole executor mid-run must still
# produce results byte-identical to an undisturbed sequential run — fault
# tolerance may cost wall-clock time, never correctness — and must not leak a
# single shared-memory segment.  The faults come from chaos.ChaosPool: each
# fires once, at the chosen sweep point's first execution in a worker.

#: Eight sweep points so faults can land mid-run, not just at the edges.
CHAOS_SWEEP = ParameterSweep("k", (3, 4, 5, 6, 7, 8, 9, 10))

CHAOS_PLANS = [
    pytest.param({1: "crash"}, None, id="worker-crash-first-attempt"),
    pytest.param({3: "hang"}, 15.0, id="hang-reclaimed-by-task-timeout"),
    pytest.param({5: "exit137"}, None, id="sigkill-breaks-pool-mid-sweep"),
]


def chaos_pool(faults: dict[int, str]) -> ChaosPool:
    """Two workers that break the given sweep points once; hangs outlast
    every task timeout below."""
    return ChaosPool(once=faults, hang_seconds=30.0, max_workers=2)


def chaos_policy(task_timeout: float | None) -> ExecutionPolicy:
    return ExecutionPolicy(backoff_base=0.0, task_timeout=task_timeout)


@pytest.mark.parametrize("faults, task_timeout", CHAOS_PLANS)
def test_faulted_sweep_is_byte_identical_to_sequential(dataset, faults, task_timeout):
    config = transaction_config("coat", k=3, m=2)
    reference = fingerprint(
        VaryingParameterExperiment(dataset).run(
            config, CHAOS_SWEEP
        )
    )
    with chaos_pool(faults) as pool:
        experiment = VaryingParameterExperiment(
            dataset,
            execution=Execution(
                mode="process", pool=pool, policy=chaos_policy(task_timeout)
            ),
        )
        faulted = experiment.run(config, CHAOS_SWEEP)
        segments = pool.segment_names()

    assert fingerprint(faulted) == reference

    # The RunReport accounts for the recovery, not just the happy ending.
    report = faulted.run_report
    assert report is not None
    assert len(report.tasks) == len(CHAOS_SWEEP)
    assert all(task.completed for task in report.tasks)
    assert report.respawns >= 1
    assert report.total_retries + sum(t.replays for t in report.tasks) >= 1

    # No segment survives the pool.
    for name in segments:
        with pytest.raises(FileNotFoundError):
            shared_memory.SharedMemory(name=name)


def test_faulted_attack_sweep_is_byte_identical_to_sequential(dataset):
    """Fault recovery may replay sweep points; replayed attack simulations
    must reproduce the exact same AttackResult values."""
    config = transaction_config("coat", k=3, m=2)
    reference = fingerprint(
        VaryingParameterExperiment(
            dataset, simulate_attacks=True
        ).run(config, CHAOS_SWEEP)
    )
    assert all(entry[-1] for entry in reference)  # attacks actually ran
    with chaos_pool({2: "crash", 5: "exit137"}) as pool:
        experiment = VaryingParameterExperiment(
            dataset,
            execution=Execution(
                mode="process", pool=pool, policy=chaos_policy(None)
            ),
            simulate_attacks=True,
        )
        faulted = experiment.run(config, CHAOS_SWEEP)
    assert fingerprint(faulted) == reference
    report = faulted.run_report
    assert report is not None and all(task.completed for task in report.tasks)


def test_chaos_storm_pcta_sweep_survives_multiple_faults(dataset):
    """Several distinct faults in one eight-task PCTA sweep: a crash, a
    hang, and a SIGKILL, all recovered within one run."""
    config = transaction_config("pcta", k=3, m=2)
    reference = fingerprint(
        VaryingParameterExperiment(dataset).run(
            config, CHAOS_SWEEP
        )
    )
    with chaos_pool({0: "crash", 2: "hang", 6: "exit137"}) as pool:
        experiment = VaryingParameterExperiment(
            dataset,
            execution=Execution(
                mode="process", pool=pool, policy=chaos_policy(15.0)
            ),
        )
        faulted = experiment.run(config, CHAOS_SWEEP)
        segments = pool.segment_names()

    assert fingerprint(faulted) == reference
    report = faulted.run_report
    assert report is not None
    assert all(task.completed for task in report.tasks)
    assert report.respawns >= 2  # at least the crash and the SIGKILL
    assert report.faulted_tasks  # the charged tasks are identifiable
    for name in segments:
        with pytest.raises(FileNotFoundError):
            shared_memory.SharedMemory(name=name)
