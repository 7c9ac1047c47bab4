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
flat list of cells in configuration-major order, derive one checkpoint key
per cell (:func:`~repro.engine.checkpoint.configuration_keys`) and hand the
cells to one :func:`~repro.engine.runner.fan_out_shared` dispatch; the
reports are grouped back into one :class:`SweepResult` per configuration.
Before that the resources are completed once, in this process, for every
configuration: configurations that share a ``hierarchy_fanout`` (and, when
their algorithm uses policies, the utility policy knobs) share one completed
resources object, and each other group gets its own, so a configuration's
generated hierarchies and utility policy never depend on what it is
compared with.  Each cell evaluates on its own shallow copy, so the
per-``k`` privacy policy a cell regenerates never leaks into the shared
resources or into the next call's keys.

Cells can fan out across CPU cores: give the comparator an
``Execution(mode="process")`` (:class:`~repro.engine.runner.Execution`) and
the cells run in worker processes; the dataset is exported once to shared
memory and each task carries only the picklable manifest (an ``Execution``
with a persistent ``pool`` reuses workers and the export across runs).
"""

from __future__ import annotations

import dataclasses
from typing import Iterable, Sequence

from repro.algorithms.registry import get_spec
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
    """Evaluate one (configuration, parameter, value) cell.

    Module-level so process-mode execution can pickle it.  The dataset slot
    holds either the dataset itself (sequential mode) or a shared-memory
    manifest that the worker attaches — once per process — without copying
    array payloads.  The cell evaluates on a shallow copy of the (complete)
    resources: what it regenerates for its own ``k`` stays its own.
    """
    (
        dataset,
        resources,
        verify_privacy,
        simulate_attacks,
        config,
        parameter,
        value,
    ) = task
    evaluator = MethodEvaluator(
        resolve_shared_dataset(dataset),
        dataclasses.replace(resources),
        verify_privacy=verify_privacy,
        simulate_attacks=simulate_attacks,
    )
    return evaluator.evaluate(config.with_parameter(parameter, value))


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

    def _completed_resources(
        self, configurations: Sequence[AnonymizationConfig]
    ) -> list[ExperimentResources]:
        """The completed resources of each configuration, one object per group.

        A group is a ``hierarchy_fanout`` plus, for configurations whose
        algorithm uses policies, the ``utility_strategy`` and
        ``utility_group_size`` the utility policy is generated from.  A
        configuration without policies joins the first policy group of its
        fanout, so a comparison whose configurations share these knobs keeps
        one group per fanout.  The first group completes ``self.resources``.
        Each other group completes a copy that keeps the domains and
        workload but starts again from the caller's hierarchies, item
        hierarchy and utility policy, so what is generated is generated for
        that group and what the caller supplied is never replaced.  The
        privacy policy is generated per k, that is per cell, so it stays as
        the caller gave it: completed here, it would follow the last
        configuration's k into every key.
        """

        def knobs(config: AnonymizationConfig) -> tuple[str, int] | None:
            algorithm = config.transaction_algorithm
            if algorithm is None or not get_spec(algorithm).uses_policies:
                return None
            return (config.utility_strategy, config.utility_group_size)

        first_knobs: dict[int, tuple[str, int]] = {}
        for config in configurations:
            own = knobs(config)
            if own is not None:
                first_knobs.setdefault(config.hierarchy_fanout, own)
        given = dataclasses.replace(self.resources)
        groups: dict[tuple, ExperimentResources] = {}
        completed = []
        for config in configurations:
            fanout = config.hierarchy_fanout
            group = (fanout, knobs(config) or first_knobs.get(fanout))
            if group not in groups:
                groups[group] = (
                    dataclasses.replace(
                        self.resources,
                        hierarchies=given.hierarchies,
                        item_hierarchy=given.item_hierarchy,
                        utility_policy=given.utility_policy,
                    )
                    if groups
                    else self.resources
                )
            groups[group].ensure_for(self.dataset, config)
            completed.append(groups[group])
        for resources in groups.values():
            resources.privacy_policy = given.privacy_policy
        return completed

    def _run_cells(
        self,
        configurations: Sequence[AnonymizationConfig],
        sweep: ParameterSweep,
    ) -> tuple[list[SweepResult], RunReport]:
        """Evaluate every (configuration, value) cell in one dispatch.

        Returns one :class:`SweepResult` per configuration and the run's
        :class:`~repro.engine.resilience.RunReport` (one task per cell).
        """
        completed = self._completed_resources(configurations)
        cells = [
            (config, resources, value)
            for config, resources in zip(configurations, completed)
            for value in sweep.values
        ]
        # Keys are derived here from the real dataset and the completed
        # resources, so a resumed run derives the identical keys in any mode.
        # One call per resources object encodes each object once.
        keys = None
        if self.execution.checkpoint is not None:
            by_group = {
                id(resources): iter(
                    configuration_keys(
                        self.dataset,
                        resources,
                        self.verify_privacy,
                        [
                            config
                            for config, own in zip(configurations, completed)
                            if own is resources
                        ],
                        sweep,
                        self.simulate_attacks,
                    )
                )
                for resources in {id(own): own for own in completed}.values()
            }
            keys = [next(by_group[id(resources)]) for _, resources, _ in cells]
        report = RunReport()
        reports = fan_out_shared(
            self.dataset,
            lambda payload: [
                (
                    payload,
                    resources,
                    self.verify_privacy,
                    self.simulate_attacks,
                    config,
                    sweep.parameter,
                    value,
                )
                for config, resources, value in cells
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
