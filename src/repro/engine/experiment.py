"""Varying-parameter execution (the Experimentation Module): the sweep and its series.

SECRETA supports two execution styles: *single parameter execution*, where
all parameters are fixed, and *varying parameter execution*, where the user
"selects the start/end values and step of a parameter that varies, as well as
fixed values for other parameters" and the system plots utility indicators
and runtime against the varying parameter.  This module holds the two halves
of a sweep that both the Evaluation and the Comparison mode share: the
varying parameter with its values (:class:`ParameterSweep`) and the
per-indicator series built from the reports (:func:`indicator_series`).

The cells themselves run in :mod:`repro.engine.comparator`:
:class:`~repro.engine.comparator.VaryingParameterExperiment` is the
comparison of one configuration, so sweeps and comparisons share one
dispatch, one checkpoint granularity and one fan-out across CPU cores.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Sequence

from repro.engine.config import SWEEPABLE_PARAMETERS
from repro.engine.results import ATTACK_INDICATORS, EvaluationReport, Series
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
