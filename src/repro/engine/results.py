"""Result containers produced by the Evaluation and Comparison modes.

These objects are what the Experimentation Module hands to the Plotting and
Data Export modules: plain data holders with utility indicators, runtimes and
the series needed to regenerate every figure of the demonstration scenarios.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Iterable

from repro.algorithms.base import AnonymizationResult
from repro.attacks.simulator import AttackResult
from repro.datasets.dataset import Dataset
from repro.engine.resilience import RunReport

#: Attack-derived sweep indicators: the empirical guarantee each simulated
#: adversary observes, plus the worst per-record re-identification risk.
ATTACK_INDICATORS = (
    "attack_qi_k",
    "attack_item_km",
    "attack_rt_k",
    "attack_max_risk",
)


@dataclass
class Series:
    """A named x/y series (one curve of a SECRETA plot)."""

    name: str
    x_label: str
    y_label: str
    x: list[Any] = field(default_factory=list)
    y: list[float] = field(default_factory=list)

    def append(self, x_value: Any, y_value: float) -> None:
        self.x.append(x_value)
        self.y.append(float(y_value))

    def as_dict(self) -> dict:
        return {
            "name": self.name,
            "x_label": self.x_label,
            "y_label": self.y_label,
            "x": list(self.x),
            "y": list(self.y),
        }

    def rows(self) -> list[tuple[Any, float]]:
        return list(zip(self.x, self.y))

    def __len__(self) -> int:
        return len(self.x)


@dataclass
class EvaluationReport:
    """The outcome of evaluating one configuration on one dataset."""

    configuration: dict[str, Any]
    result: AnonymizationResult
    utility: dict[str, float]
    privacy: dict[str, Any]
    #: ARE of the query workload (``None`` when the resources carry no
    #: workload — a dataset with nothing to query).
    are: float | None
    runtime_seconds: float
    phase_seconds: dict[str, float]
    generalized_value_frequencies: dict[str, dict[str, int]] = field(default_factory=dict)
    item_frequency_errors: dict[str, float] = field(default_factory=dict)
    #: Simulated re-identification attacks against the anonymized output
    #: (empty unless the evaluator ran with ``simulate_attacks=True``), keyed
    #: ``"qi"`` / ``"item"`` / ``"rt"`` by adversary model.
    attacks: dict[str, AttackResult] = field(default_factory=dict)

    @property
    def anonymized(self) -> Dataset:
        return self.result.dataset

    def attack_indicator(self, indicator: str) -> float | None:
        """The value of one :data:`ATTACK_INDICATORS` entry (``None`` = absent).

        An attack whose ``empirical_k`` is ``None`` (the adversary never
        found a candidate) yields no point rather than a misleading zero.
        """
        per_attack = {
            "attack_qi_k": "qi",
            "attack_item_km": "item",
            "attack_rt_k": "rt",
        }
        if indicator in per_attack:
            attack = self.attacks.get(per_attack[indicator])
            if attack is None or attack.empirical_k is None:
                return None
            return float(attack.empirical_k)
        if indicator == "attack_max_risk":
            if not self.attacks:
                return None
            return max(attack.max_risk for attack in self.attacks.values())
        return None

    def summary(self) -> dict[str, Any]:
        """The flat summary row shown by the "message box" after a run."""
        row = {
            "configuration": self.configuration.get("label"),
            "are": self.are,
            "runtime_seconds": self.runtime_seconds,
            **{f"utility_{key}": value for key, value in self.utility.items()},
            **{f"privacy_{key}": value for key, value in self.privacy.items()},
        }
        for name, attack in self.attacks.items():
            row[f"attack_{name}_empirical_k"] = attack.empirical_k
            row[f"attack_{name}_max_risk"] = attack.max_risk
        return row


@dataclass
class SweepResult:
    """Utility indicators and runtime across one varying-parameter sweep."""

    configuration: dict[str, Any]
    parameter: str
    values: list[Any]
    series: dict[str, Series]
    reports: list[EvaluationReport] = field(default_factory=list)
    #: How the sweep's fan-out actually went (attempts, retries, respawns,
    #: degradations); ``None`` for plain sequential runs without an
    #: execution policy.  Excluded from :meth:`as_dict` exports — recovery
    #: timing is not part of the scientific result.
    run_report: RunReport | None = None

    def as_dict(self) -> dict:
        return {
            "configuration": self.configuration,
            "parameter": self.parameter,
            "values": list(self.values),
            "series": {name: series.as_dict() for name, series in self.series.items()},
        }


@dataclass
class ComparisonReport:
    """The outcome of the Comparison mode: one sweep per configuration."""

    parameter: str
    values: list[Any]
    sweeps: list[SweepResult]
    #: Fan-out account of the comparison itself (one entry per
    #: configuration-task); ``None`` without a policy or process fan-out.
    run_report: RunReport | None = None

    def series_for(self, indicator: str) -> list[Series]:
        """One series per configuration for the requested indicator."""
        return [sweep.series[indicator] for sweep in self.sweeps if indicator in sweep.series]

    def indicators(self) -> list[str]:
        names: set[str] = set()
        for sweep in self.sweeps:
            names.update(sweep.series)
        return sorted(names)

    def table(self, indicator: str) -> list[dict[str, Any]]:
        """Rows of ``parameter value x configuration`` for one indicator."""
        rows = []
        for position, value in enumerate(self.values):
            row: dict[str, Any] = {self.parameter: value}
            for sweep in self.sweeps:
                series = sweep.series.get(indicator)
                if series is not None and position < len(series.y):
                    row[sweep.configuration.get("label", "config")] = series.y[position]
            rows.append(row)
        return rows

    def as_dict(self) -> dict:
        return {
            "parameter": self.parameter,
            "values": list(self.values),
            "sweeps": [sweep.as_dict() for sweep in self.sweeps],
        }


def merge_series(series_list: Iterable[Series], name: str, x_label: str, y_label: str) -> Series:
    """Concatenate several series into one (used for per-phase runtime bars)."""
    merged = Series(name=name, x_label=x_label, y_label=y_label)
    for series in series_list:
        for x_value, y_value in series.rows():
            merged.append(x_value, y_value)
    return merged
