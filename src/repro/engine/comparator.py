"""The Method Comparator: SECRETA's Comparison mode.

The Comparison mode lets the data publisher design a benchmark: a set of
configurations (each pairing algorithms, a bounding method and fixed
parameters) plus a varying parameter with its start/end/step.  Every
configuration is executed across the sweep and the results are collected into
per-indicator series so they can be plotted side by side — "an interactive
and progressive comparison of sets of algorithms, with respect to their
utility and efficiency".

Comparisons can fan out across CPU cores: give the comparator an
``Execution(mode="process")`` (:class:`~repro.engine.runner.Execution`) and
every configuration's sweep runs in its own worker process; the dataset is
exported once to shared memory and each task carries only the picklable
manifest (an ``Execution`` with a persistent ``pool`` reuses workers and the
export across comparisons).
"""

from __future__ import annotations

from typing import Iterable, Sequence

from repro.columnar.shared import resolve_shared_dataset
from repro.datasets.dataset import Dataset
from repro.datasets.domains import DatasetDomains
from repro.engine.checkpoint import configuration_keys
from repro.engine.config import AnonymizationConfig
from repro.engine.experiment import ParameterSweep, VaryingParameterExperiment
from repro.engine.resources import ExperimentResources
from repro.engine.results import ComparisonReport, SweepResult
from repro.engine.runner import Execution, fan_out_shared
from repro.exceptions import ConfigurationError


def _run_configuration(task: tuple) -> SweepResult:
    """Run one configuration across the sweep (module-level: picklable).

    The dataset slot holds either the dataset itself or a shared-memory
    manifest (process mode) that the worker attaches without copying arrays.
    The checkpoint slot carries the (picklable) store into the worker, so a
    comparison checkpoints at both granularities: whole-configuration cells
    out here, per-sweep-point cells inside the worker's own experiment.
    """
    (
        dataset,
        resources,
        verify_privacy,
        universe_mode,
        simulate_attacks,
        config,
        sweep,
        checkpoint,
    ) = task
    experiment = VaryingParameterExperiment(
        resolve_shared_dataset(dataset),
        resources,
        verify_privacy=verify_privacy,
        execution=Execution(checkpoint=checkpoint),
        universe_mode=universe_mode,
        simulate_attacks=simulate_attacks,
    )
    return experiment.run(config, sweep)


class MethodComparator:
    """Execute and compare multiple configurations over a parameter sweep."""

    def __init__(
        self,
        dataset: Dataset,
        resources: ExperimentResources | None = None,
        verify_privacy: bool = False,
        execution: Execution = Execution(),
        universe_mode: str = "original",
        simulate_attacks: bool = False,
    ) -> None:
        self.dataset = dataset
        self.resources = resources or ExperimentResources()
        self.verify_privacy = verify_privacy
        self.execution = execution
        self.universe_mode = universe_mode
        self.simulate_attacks = simulate_attacks

    def _tasks(
        self,
        payload: object,
        configurations: Sequence[AnonymizationConfig],
        sweep: ParameterSweep,
    ) -> list[tuple]:
        return [
            (
                payload,
                self.resources,
                self.verify_privacy,
                self.universe_mode,
                self.simulate_attacks,
                config,
                sweep,
                self.execution.checkpoint,
            )
            for config in configurations
        ]

    def compare(
        self,
        configurations: Sequence[AnonymizationConfig] | Iterable[AnonymizationConfig],
        sweep: ParameterSweep,
    ) -> ComparisonReport:
        """Run every configuration across the sweep and collect the series."""
        configurations = list(configurations)
        if not configurations:
            raise ConfigurationError("the Comparison mode needs at least one configuration")

        if self.resources.domains is None and len(self.dataset):
            # One snapshot shared by every configuration's sweep (and every
            # worker process the comparison fans out to).
            self.resources.domains = DatasetDomains.capture(self.dataset)
        # Whole-configuration checkpoint keys, derived in the orchestrating
        # process from the real dataset (workers additionally checkpoint
        # their per-sweep-point cells — see ``_run_configuration``).
        keys = (
            configuration_keys(
                self.dataset,
                self.resources,
                self.verify_privacy,
                self.universe_mode,
                configurations,
                sweep,
                self.simulate_attacks,
            )
            if self.execution.checkpoint is not None
            else None
        )
        report = self.execution.run_report(len(configurations))
        sweeps = fan_out_shared(
            self.dataset,
            lambda payload: self._tasks(payload, configurations, sweep),
            _run_configuration,
            self.execution,
            report,
            keys,
        )
        return ComparisonReport(
            parameter=sweep.parameter,
            values=list(sweep.values),
            sweeps=list(sweeps),
            run_report=report,
        )

    def compare_fixed(
        self,
        configurations: Sequence[AnonymizationConfig],
        parameter: str,
        value: object,
    ) -> ComparisonReport:
        """Single-parameter-value comparison (a degenerate sweep of length one)."""
        return self.compare(configurations, ParameterSweep(parameter, (value,)))
