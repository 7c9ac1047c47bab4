"""Crash-recoverable sweeps: interrupt anywhere, resume, get identical bytes.

The durability acceptance suite for the checkpoint store.  A sweep killed
with SIGKILL after any completed task — the way a cgroup OOM-killer or a
pulled plug ends a run — must, on re-run over the same store, recompute only
the missing cells and produce results byte-identical to an uninterrupted
sequential run.  Torn cells (the kill landing mid-write, simulated by
truncation faults) must degrade to a recompute with a structured warning,
never to served garbage.  And resuming in process mode must leak no
shared-memory segments, exactly like any other fan-out.

The SIGKILL really is unconditional (``CheckpointFaults.kill_after_store``
fires in whichever process performs the store), so the interrupted leg runs
in a sacrificial subprocess; the resume leg runs in-process where its report
can be inspected.
"""

from __future__ import annotations

import os
import subprocess
import sys
import textwrap
from multiprocessing import shared_memory
from pathlib import Path

import pytest

from repro.datasets import generate_rt_dataset
from repro.engine import (
    CheckpointFaults,
    CheckpointStore,
    Execution,
    ExperimentResources,
    MethodComparator,
    ParameterSweep,
    VaryingParameterExperiment,
    WorkerPool,
    transaction_config,
)
from repro.frontend import Session

#: Eight sweep points, matching the chaos suite: every interruption index in
#: 1..8 is a distinct crash site.
CHAOS_SWEEP = ParameterSweep("k", (3, 4, 5, 6, 7, 8, 9, 10))

DATASET_KWARGS = dict(n_records=80, n_items=16, seed=41)


@pytest.fixture(scope="module")
def dataset():
    return generate_rt_dataset(**DATASET_KWARGS)


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


#: The interrupted leg: a COAT sweep that a SIGKILL ends right after the
#: N-th cell reaches disk.  Regenerates the module dataset from its seed —
#: content-addressed keys care about bytes, not object identity.
KILL_SCRIPT = textwrap.dedent(
    """
    import sys
    from repro.datasets import generate_rt_dataset
    from repro.engine import (
        CheckpointFaults, CheckpointStore, Execution, ParameterSweep,
        VaryingParameterExperiment, transaction_config,
    )

    directory, kill_after = sys.argv[1], int(sys.argv[2])
    simulate_attacks = bool(int(sys.argv[3]))
    dataset = generate_rt_dataset(n_records=80, n_items=16, seed=41)
    store = CheckpointStore(
        directory, faults=CheckpointFaults(kill_after_store=kill_after)
    )
    experiment = VaryingParameterExperiment(
        dataset,
        execution=Execution(checkpoint=store),
        simulate_attacks=simulate_attacks,
    )
    experiment.run(
        transaction_config("coat", k=3, m=2),
        ParameterSweep("k", (3, 4, 5, 6, 7, 8, 9, 10)),
    )
    print("survived")  # never reached while kill_after <= task count
    """
)


def run_killed_sweep(
    directory: Path, kill_after: int, simulate_attacks: bool = False
) -> None:
    repo_root = Path(__file__).resolve().parents[2]
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(repo_root / "src")]
        + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else [])
    )
    result = subprocess.run(
        [
            sys.executable,
            "-c",
            KILL_SCRIPT,
            str(directory),
            str(kill_after),
            str(int(simulate_attacks)),
        ],
        capture_output=True,
        text=True,
        cwd=repo_root,
        env=env,
        timeout=300,
    )
    # SIGKILL shows as -9 from the child's perspective; a platform without
    # SIGKILL falls back to a hard _exit(137).
    assert result.returncode in (-9, 137), (
        f"expected the injected kill, got rc={result.returncode}; "
        f"stdout={result.stdout!r} stderr={result.stderr!r}"
    )
    assert "survived" not in result.stdout


@pytest.mark.parametrize("kill_after", [1, 3, 8])
def test_sigkill_mid_sweep_resumes_byte_identical(tmp_path, dataset, kill_after):
    """Kill after cell #N; the resume serves N hits, computes the rest, and
    the merged results match an uninterrupted sequential run exactly."""
    config = transaction_config("coat", k=3, m=2)
    reference = fingerprint(
        VaryingParameterExperiment(dataset).run(config, CHAOS_SWEEP)
    )

    directory = tmp_path / "ckpt"
    run_killed_sweep(directory, kill_after)

    # Exactly the completed cells survived the kill — nothing torn, nothing
    # phantom: atomic rename means a cell either fully exists or never did.
    store = CheckpointStore(directory)
    assert len(store.keys()) == kill_after

    resumed = VaryingParameterExperiment(dataset, execution=Execution(checkpoint=store)).run(
        config, CHAOS_SWEEP
    )
    assert fingerprint(resumed) == reference

    report = resumed.run_report
    assert report is not None
    assert report.checkpoint_counts() == {
        "hit": kill_after,
        "miss": len(CHAOS_SWEEP) - kill_after,
        "corrupt": 0,
    }
    assert report.warnings == []
    assert all(task.completed for task in report.tasks)

    # A third run over the now-complete store is pure hits.
    final = VaryingParameterExperiment(dataset, execution=Execution(checkpoint=store)).run(
        config, CHAOS_SWEEP
    )
    assert fingerprint(final) == reference
    assert final.run_report.checkpoint_counts()["hit"] == len(CHAOS_SWEEP)


def test_sigkill_attack_sweep_resumes_byte_identical(tmp_path, dataset):
    """The same durability contract with attack simulation folded into the
    cells: the killed-then-resumed sweep serves the attacked reports —
    AttackResult values included — byte-identical to an uninterrupted run."""
    config = transaction_config("coat", k=3, m=2)
    reference = fingerprint(
        VaryingParameterExperiment(dataset, simulate_attacks=True).run(
            config, CHAOS_SWEEP
        )
    )
    assert all(entry[-1] for entry in reference)  # attacks in every report

    directory = tmp_path / "ckpt"
    run_killed_sweep(directory, 4, simulate_attacks=True)
    store = CheckpointStore(directory)
    assert len(store.keys()) == 4

    resumed = VaryingParameterExperiment(
        dataset, execution=Execution(checkpoint=store), simulate_attacks=True
    ).run(config, CHAOS_SWEEP)
    assert fingerprint(resumed) == reference
    assert resumed.run_report.checkpoint_counts() == {
        "hit": 4, "miss": 4, "corrupt": 0,
    }


def test_attack_flag_partitions_the_key_space(tmp_path, dataset):
    """Cells computed without attack simulation are never served to a run
    that expects attacked reports (and vice versa): the flag is part of the
    content-addressed key."""
    config = transaction_config("coat", k=3, m=2)
    sweep = ParameterSweep("k", (3, 4))
    store = CheckpointStore(tmp_path / "ckpt")

    VaryingParameterExperiment(dataset, execution=Execution(checkpoint=store)).run(config, sweep)
    assert len(store.keys()) == 2

    attacked = VaryingParameterExperiment(
        dataset, execution=Execution(checkpoint=store), simulate_attacks=True
    ).run(config, sweep)
    assert attacked.run_report.checkpoint_counts() == {
        "hit": 0, "miss": 2, "corrupt": 0,
    }
    assert len(store.keys()) == 4
    assert all(report.attacks for report in attacked.reports)


def test_resume_in_process_mode_serves_hits_and_leaks_nothing(tmp_path, dataset):
    """A sequential half-run resumed under process fan-out: hits are served
    from disk in the orchestrating process, worker segments are unlinked."""
    config = transaction_config("pcta", k=3, m=2)
    reference = fingerprint(
        VaryingParameterExperiment(dataset).run(config, CHAOS_SWEEP)
    )

    store = CheckpointStore(tmp_path / "ckpt")
    half = ParameterSweep("k", CHAOS_SWEEP.values[:4])
    VaryingParameterExperiment(dataset, execution=Execution(checkpoint=store)).run(config, half)
    assert len(store.keys()) == 4

    with WorkerPool(max_workers=2) as pool:
        resumed = VaryingParameterExperiment(
            dataset, execution=Execution(mode="process", pool=pool, checkpoint=store)
        ).run(config, CHAOS_SWEEP)
        segments = pool.segment_names()

    assert fingerprint(resumed) == reference
    assert resumed.run_report.checkpoint_counts() == {
        "hit": 4, "miss": 4, "corrupt": 0,
    }
    for name in segments:
        with pytest.raises(FileNotFoundError):
            shared_memory.SharedMemory(name=name)


def test_torn_write_degrades_to_recompute_with_warning(tmp_path, dataset):
    """A truncation fault models the kill landing mid-write on a filesystem
    that reordered the rename: the torn cell is detected, warned about,
    recomputed, and repaired — and never changes the results."""
    config = transaction_config("coat", k=3, m=2)
    reference = fingerprint(
        VaryingParameterExperiment(dataset).run(config, CHAOS_SWEEP)
    )

    directory = tmp_path / "ckpt"
    faulted = CheckpointStore(
        directory, faults=CheckpointFaults(truncate_after_store=3, truncate_to=7)
    )
    first = VaryingParameterExperiment(dataset, execution=Execution(checkpoint=faulted)).run(
        config, CHAOS_SWEEP
    )
    assert fingerprint(first) == reference  # the tear is on disk, not in RAM

    clean = CheckpointStore(directory)
    resumed = VaryingParameterExperiment(dataset, execution=Execution(checkpoint=clean)).run(
        config, CHAOS_SWEEP
    )
    assert fingerprint(resumed) == reference

    report = resumed.run_report
    assert report.checkpoint_counts() == {"hit": 7, "miss": 0, "corrupt": 1}
    assert len(report.warnings) == 1
    assert "damaged" in report.warnings[0]
    assert report.checkpoint_counts() == report.summary()["checkpoints"]

    # The recompute repaired the cell: the next run is pure hits.
    final = VaryingParameterExperiment(dataset, execution=Execution(checkpoint=clean)).run(
        config, CHAOS_SWEEP
    )
    assert final.run_report.checkpoint_counts() == {
        "hit": 8, "miss": 0, "corrupt": 0,
    }


def test_session_comparison_resumes_across_sessions(tmp_path, dataset):
    """The frontend path: a comparison checkpointed through one Session is
    served entirely from disk by a second Session over the same directory,
    one cell per (configuration, value)."""
    configs = [
        transaction_config("coat", k=3, m=2),
        transaction_config("pcta", k=3, m=2),
    ]

    first = Session(dataset).with_checkpoints(tmp_path / "ckpt")
    cold = first.compare(configs, "k", 3, 5, 1)
    assert cold.run_report is not None
    counts = cold.run_report.checkpoint_counts()
    cells = len(configs) * 3
    assert counts == {"hit": 0, "miss": cells, "corrupt": 0}

    second = Session(dataset).with_checkpoints(tmp_path / "ckpt")
    warm = second.compare(configs, "k", 3, 5, 1)
    warm_counts = warm.run_report.checkpoint_counts()
    assert warm_counts["miss"] == 0 and warm_counts["corrupt"] == 0
    assert warm_counts["hit"] == cells

    assert [fingerprint(sweep) for sweep in warm.sweeps] == [
        fingerprint(sweep) for sweep in cold.sweeps
    ]


def test_repeated_sequential_comparison_is_served_from_the_store(tmp_path, dataset):
    """Each cell generates the per-k privacy policy on its own copy of the
    resources, so a k-sweep leaves the caller's privacy policy — and with it
    the next call's keys — as it was."""
    session = Session(dataset)
    resources = session.resources()
    config = transaction_config("coat", k=3, m=2)
    directory = tmp_path / "ckpt"

    def run():
        return session.compare(
            [config], "k", 3, 5, 1, resources=resources,
            checkpoint=CheckpointStore(directory),
        )

    cold = run()
    warm = run()
    assert warm.run_report.checkpoint_counts() == {"hit": 3, "miss": 0, "corrupt": 0}
    assert cold.run_report.checkpoint_counts() == {"hit": 0, "miss": 3, "corrupt": 0}
    assert resources.privacy_policy is None
    assert fingerprint(warm.sweeps[0]) == fingerprint(cold.sweeps[0])


def test_sweep_cells_serve_the_equivalent_comparison(tmp_path, dataset):
    """Sweeps and comparisons checkpoint the same (configuration, value)
    cells under the same keys: per-configuration sweeps fill the store, and
    the comparison of those configurations is pure hits."""
    configs = [
        transaction_config("coat", k=3, m=2),
        transaction_config("pcta", k=3, m=2),
    ]
    sweep = ParameterSweep("k", (3, 4))
    resources = ExperimentResources()
    execution = Execution(checkpoint=CheckpointStore(tmp_path / "ckpt"))
    sweeps = [
        VaryingParameterExperiment(dataset, resources, execution=execution).run(config, sweep)
        for config in configs
    ]
    comparison = MethodComparator(dataset, resources, execution=execution).compare(
        configs, sweep
    )
    assert comparison.run_report.checkpoint_counts() == {
        "hit": len(configs) * len(sweep), "miss": 0, "corrupt": 0,
    }
    assert [fingerprint(result) for result in comparison.sweeps] == [
        fingerprint(result) for result in sweeps
    ]


def test_dataset_mutation_invalidates_every_cell(tmp_path, dataset):
    """Stale cells are unreachable by construction: editing the dataset
    changes its fingerprint, hence every content-addressed key."""
    config = transaction_config("coat", k=3, m=2)
    sweep = ParameterSweep("k", (3, 4))
    store = CheckpointStore(tmp_path / "ckpt")

    edited = generate_rt_dataset(**DATASET_KWARGS)
    VaryingParameterExperiment(edited, execution=Execution(checkpoint=store)).run(config, sweep)
    assert len(store.keys()) == 2

    edited.set_value(0, edited.schema.names[0], 99)
    report = VaryingParameterExperiment(edited, execution=Execution(checkpoint=store)).run(
        config, sweep
    ).run_report
    assert report.checkpoint_counts() == {"hit": 0, "miss": 2, "corrupt": 0}
    assert len(store.keys()) == 4
