"""Varying-parameter execution (the Experimentation Module).

SECRETA supports two execution styles: *single parameter execution*, where
all parameters are fixed, and *varying parameter execution*, where the user
"selects the start/end values and step of a parameter that varies, as well as
fixed values for other parameters" and the system plots utility indicators
and runtime against the varying parameter.  This module implements the sweep
machinery used by both the Evaluation and the Comparison mode.

Sweeps can fan out across CPU cores: give
:class:`VaryingParameterExperiment` an
``Execution(mode="process")`` (:class:`~repro.engine.runner.Execution`) and
every sweep point is evaluated in its own worker process (the algorithms are
CPU-bound pure Python, so threads cannot speed them up — see
:mod:`repro.engine.runner`).  In process mode the dataset is not pickled
into every task: it is exported once to shared memory and the tasks carry
only the small manifest (:mod:`repro.columnar.shared`); an ``Execution``
with a persistent :class:`~repro.engine.pool.WorkerPool` reuses the workers
and the export across several sweeps.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Sequence

from repro.columnar.shared import resolve_shared_dataset
from repro.datasets.dataset import Dataset
from repro.datasets.domains import DatasetDomains
from repro.engine.checkpoint import sweep_point_keys
from repro.engine.config import SWEEPABLE_PARAMETERS, AnonymizationConfig
from repro.engine.evaluator import MethodEvaluator
from repro.engine.resources import ExperimentResources
from repro.engine.results import (
    ATTACK_INDICATORS,
    EvaluationReport,
    Series,
    SweepResult,
)
from repro.engine.runner import Execution, fan_out_shared
from repro.exceptions import ConfigurationError

#: Indicators extracted from every evaluation report into sweep series.
SWEEP_INDICATORS = (
    "are",
    "runtime_seconds",
    "relational_gcp",
    "transaction_ul",
    "item_frequency_error",
    "discernibility",
    "average_class_size",
) + ATTACK_INDICATORS


@dataclass(frozen=True)
class ParameterSweep:
    """The varying parameter of an experiment: name plus the values to visit."""

    parameter: str
    values: tuple[Any, ...]

    def __post_init__(self) -> None:
        if self.parameter not in SWEEPABLE_PARAMETERS:
            raise ConfigurationError(
                f"cannot vary {self.parameter!r}; expected one of {SWEEPABLE_PARAMETERS}"
            )
        if not self.values:
            raise ConfigurationError("a parameter sweep needs at least one value")
        object.__setattr__(self, "values", tuple(self.values))

    @classmethod
    def from_range(
        cls, parameter: str, start: float, end: float, step: float
    ) -> "ParameterSweep":
        """Build a sweep from start/end/step, exactly like the GUI sliders."""
        if step <= 0:
            raise ConfigurationError("the sweep step must be positive")
        if end < start:
            raise ConfigurationError("the sweep end must not precede its start")
        values: list[float] = []
        value = float(start)
        while value <= end + 1e-9:
            values.append(round(value, 10))
            value += step
        if parameter in ("k", "m"):
            values = [int(round(v)) for v in values]
        return cls(parameter, tuple(values))

    def __len__(self) -> int:
        return len(self.values)


def indicator_series(
    reports: Sequence[EvaluationReport],
    values: Sequence[Any],
    parameter: str,
    label: str,
) -> dict[str, Series]:
    """Build one series per indicator from a list of evaluation reports."""
    series: dict[str, Series] = {}
    for indicator in SWEEP_INDICATORS:
        current = Series(
            name=f"{label}:{indicator}", x_label=parameter, y_label=indicator
        )
        populated = False
        for value, report in zip(values, reports):
            if indicator == "are":
                if report.are is not None:
                    current.append(value, report.are)
                    populated = True
            elif indicator == "runtime_seconds":
                current.append(value, report.runtime_seconds)
                populated = True
            elif indicator in report.utility:
                current.append(value, report.utility[indicator])
                populated = True
            elif indicator in ATTACK_INDICATORS:
                attack_value = report.attack_indicator(indicator)
                if attack_value is not None:
                    current.append(value, attack_value)
                    populated = True
        if populated:
            series[indicator] = current
    return series


def _evaluate_sweep_point(task: tuple) -> EvaluationReport:
    """Evaluate one (configuration, parameter, value) sweep point.

    Module-level so process-mode execution can pickle it; the resources
    travel inside the task tuple, while the dataset slot holds either the
    dataset itself (sequential/thread) or a shared-memory manifest that the
    worker attaches — once per process — without copying array payloads.
    """
    (
        dataset,
        resources,
        verify_privacy,
        universe_mode,
        simulate_attacks,
        config,
        parameter,
        value,
    ) = task
    dataset = resolve_shared_dataset(dataset)
    evaluator = MethodEvaluator(
        dataset,
        resources,
        verify_privacy=verify_privacy,
        universe_mode=universe_mode,
        simulate_attacks=simulate_attacks,
    )
    return evaluator.evaluate(config.with_parameter(parameter, value))


class VaryingParameterExperiment:
    """Run one configuration across a parameter sweep and collect series.

    ``execution`` (an :class:`~repro.engine.runner.Execution`) says how the
    sweep points run: sequentially by default, or fanned out to threads or
    processes, under an optional fault-tolerance policy and checkpoint
    store.  The run's :class:`~repro.engine.resilience.RunReport`, when it
    keeps one, is attached to the :class:`SweepResult` as ``run_report``.
    """

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
        self, payload: object, config: AnonymizationConfig, sweep: ParameterSweep
    ) -> list[tuple]:
        return [
            (
                payload,
                self.resources,
                self.verify_privacy,
                self.universe_mode,
                self.simulate_attacks,
                config,
                sweep.parameter,
                value,
            )
            for value in sweep.values
        ]

    def run(self, config: AnonymizationConfig, sweep: ParameterSweep) -> SweepResult:
        if self.resources.domains is None and len(self.dataset):
            # Capture the original-domain snapshot once in the parent so every
            # sweep point (and worker process) shares one equal snapshot.
            self.resources.domains = DatasetDomains.capture(self.dataset)
        # Checkpoint keys are derived here, in the orchestrating process and
        # *after* the domain snapshot above, from the real dataset — so a
        # resumed run (which captures the identical snapshot) computes the
        # identical keys regardless of execution mode.
        keys = (
            sweep_point_keys(
                self.dataset,
                self.resources,
                self.verify_privacy,
                self.universe_mode,
                config,
                sweep,
                self.simulate_attacks,
            )
            if self.execution.checkpoint is not None
            else None
        )
        report = self.execution.run_report(len(sweep))
        reports = fan_out_shared(
            self.dataset,
            lambda payload: self._tasks(payload, config, sweep),
            _evaluate_sweep_point,
            self.execution,
            report,
            keys,
        )
        series = indicator_series(
            reports, list(sweep.values), sweep.parameter, config.display_label
        )
        return SweepResult(
            configuration=config.describe(),
            parameter=sweep.parameter,
            values=list(sweep.values),
            series=series,
            reports=reports,
            run_report=report,
        )
