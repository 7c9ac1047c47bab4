"""The Method Comparator (SECRETA's Comparison mode) and the sweep runner.

The Comparison mode lets the data publisher design a benchmark: a set of
configurations (each pairing algorithms, a bounding method and fixed
parameters) plus a varying parameter with its start/end/step.  Every
configuration is executed across the sweep and the results are collected into
per-indicator series so they can be plotted side by side — "an interactive
and progressive comparison of sets of algorithms, with respect to their
utility and efficiency".  A varying-parameter experiment
(:class:`VaryingParameterExperiment`) is the comparison of one
configuration.

The unit of work is one (configuration, value) cell.  Both classes build the
flat list of cells in configuration-major order, resolve each cell's
resources in this process
(:meth:`~repro.engine.resources.ExperimentResources.for_config`), derive
one checkpoint key per cell
(:func:`~repro.engine.checkpoint.configuration_keys`) and hand the cells to
one :func:`~repro.engine.runner.fan_out_shared` dispatch; the reports are
grouped back into one :class:`SweepResult` per configuration.  A cell reads
the resources its configuration resolves to alone and is keyed on them, so
its result and its key never depend on what it is compared with, and the
workers generate nothing.

Cells can fan out across CPU cores: give the comparator an
``Execution(mode="process")`` (:class:`~repro.engine.runner.Execution`) and
the cells run in worker processes; the dataset is exported once to shared
memory and each task carries only the picklable manifest (an ``Execution``
with a persistent ``pool`` reuses workers and the export across runs).
"""

from __future__ import annotations

import dataclasses
from typing import Iterable, Sequence

from repro.columnar.shared import resolve_shared_dataset
from repro.datasets.dataset import Dataset
from repro.engine.checkpoint import configuration_keys
from repro.engine.config import AnonymizationConfig
from repro.engine.evaluator import MethodEvaluator
from repro.engine.experiment import ParameterSweep, indicator_series
from repro.engine.resilience import RunReport
from repro.engine.resources import ExperimentResources
from repro.engine.results import ComparisonReport, EvaluationReport, SweepResult
from repro.engine.runner import Execution, fan_out_shared
from repro.exceptions import ConfigurationError


def _evaluate_cell(task: tuple) -> EvaluationReport:
    """Evaluate one (configuration, value) cell on its resolved resources.

    Module-level so process-mode execution can pickle it.  The dataset slot
    holds either the dataset itself (sequential mode) or a shared-memory
    manifest that the worker attaches — once per process — without copying
    array payloads.  The resources arrive resolved for the cell, so the
    evaluator generates nothing.
    """
    dataset, resources, verify_privacy, simulate_attacks, config = task
    evaluator = MethodEvaluator(
        resolve_shared_dataset(dataset),
        resources,
        verify_privacy=verify_privacy,
        simulate_attacks=simulate_attacks,
    )
    return evaluator.evaluate(config)


class MethodComparator:
    """Execute and compare multiple configurations over a parameter sweep.

    ``execution`` (an :class:`~repro.engine.runner.Execution`) says how the
    cells run: sequentially by default, or fanned out to worker
    processes, under an optional fault-tolerance policy and checkpoint
    store.
    """

    def __init__(
        self,
        dataset: Dataset,
        resources: ExperimentResources | None = None,
        verify_privacy: bool = False,
        execution: Execution = Execution(),
        simulate_attacks: bool = False,
    ) -> None:
        self.dataset = dataset
        self.resources = resources or ExperimentResources()
        self.verify_privacy = verify_privacy
        self.execution = execution
        self.simulate_attacks = simulate_attacks

    def _keys(
        self,
        configurations: Sequence[AnonymizationConfig],
        sweep: ParameterSweep,
        resolved: Sequence[ExperimentResources],
    ) -> list[str]:
        """One checkpoint key per cell, in configuration-major order.

        ``resolved`` holds one cell's resources per configuration.  Each
        configuration is keyed on them with the privacy slot as the caller
        gave it (the policy generated for each swept ``k`` follows from the
        key's other parts), which is its key when swept alone.  One
        ``configuration_keys`` call, which encodes the resources once, serves
        every configuration whose artefacts are the same objects.
        """
        groups: dict[tuple, list[int]] = {}
        for position, resources in enumerate(resolved):
            artefacts = (
                *resources.hierarchies.values(),
                resources.item_hierarchy,
                resources.utility_policy,
                resources.workload,
                resources.domains,
            )
            groups.setdefault(tuple(map(id, artefacts)), []).append(position)
        keys: dict[int, list[str]] = {}
        for positions in groups.values():
            batch = iter(
                configuration_keys(
                    self.dataset,
                    dataclasses.replace(
                        resolved[positions[0]], privacy_policy=self.resources.privacy_policy
                    ),
                    self.verify_privacy,
                    [configurations[position] for position in positions],
                    sweep,
                    self.simulate_attacks,
                )
            )
            for position in positions:
                keys[position] = [next(batch) for _ in sweep.values]
        return [key for position in sorted(keys) for key in keys[position]]

    def _run_cells(
        self,
        configurations: Sequence[AnonymizationConfig],
        sweep: ParameterSweep,
    ) -> tuple[list[SweepResult], RunReport]:
        """Evaluate every (configuration, value) cell in one dispatch.

        Each cell's resources are resolved here, before keys are derived and
        before the cells fan out, so a resumed run derives the identical keys
        in any mode and no worker generates anything.  Returns one
        :class:`SweepResult` per configuration and the run's
        :class:`~repro.engine.resilience.RunReport` (one task per cell).
        """
        cells = [
            (cell, self.resources.for_config(self.dataset, cell))
            for config in configurations
            for cell in (
                config.with_parameter(sweep.parameter, value) for value in sweep.values
            )
        ]
        keys = None
        if self.execution.checkpoint is not None:
            resolved = [resources for _, resources in cells[:: len(sweep)]]
            keys = self._keys(configurations, sweep, resolved)
        report = RunReport()
        reports = fan_out_shared(
            self.dataset,
            lambda payload: [
                (payload, resources, self.verify_privacy, self.simulate_attacks, cell)
                for cell, resources in cells
            ],
            _evaluate_cell,
            self.execution,
            report,
            keys,
        )
        width = len(sweep)
        sweeps = []
        for position, config in enumerate(configurations):
            own = reports[position * width : (position + 1) * width]
            sweeps.append(
                SweepResult(
                    configuration=config.describe(),
                    parameter=sweep.parameter,
                    values=list(sweep.values),
                    series=indicator_series(
                        own, sweep.values, sweep.parameter, config.display_label
                    ),
                    reports=own,
                )
            )
        return sweeps, report

    def compare(
        self,
        configurations: Sequence[AnonymizationConfig] | Iterable[AnonymizationConfig],
        sweep: ParameterSweep,
    ) -> ComparisonReport:
        """Run every configuration across the sweep and collect the series."""
        configurations = list(configurations)
        if not configurations:
            raise ConfigurationError("the Comparison mode needs at least one configuration")
        sweeps, report = self._run_cells(configurations, sweep)
        return ComparisonReport(
            parameter=sweep.parameter,
            values=list(sweep.values),
            sweeps=sweeps,
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


class VaryingParameterExperiment(MethodComparator):
    """Run one configuration across a parameter sweep and collect series.

    The comparison of one configuration: the run's
    :class:`~repro.engine.resilience.RunReport` is attached to the
    :class:`SweepResult` as ``run_report``.
    """

    def run(self, config: AnonymizationConfig, sweep: ParameterSweep) -> SweepResult:
        (result,), report = self._run_cells([config], sweep)
        result.run_report = report
        return result
