"""Anonymization configurations.

A configuration captures everything the GUI's "Method evaluation" /
"Methods comparison" panes let the user choose: which algorithm(s) to run,
the privacy parameters ``k``, ``m`` and ``δ``, which attributes participate,
and how missing inputs (hierarchies, policies) should be generated.  The same
configuration object drives single runs, varying-parameter sweeps and
multi-configuration comparisons.
"""

from __future__ import annotations

import dataclasses
import inspect
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Any

from repro.algorithms.registry import get_spec
from repro.exceptions import ConfigurationError
from repro.metrics.relational import quasi_identifier_attributes

if TYPE_CHECKING:
    from repro.datasets.dataset import Dataset

#: The parameters a varying-parameter experiment may sweep.
SWEEPABLE_PARAMETERS = ("k", "m", "delta")

#: Constructor keywords the Anonymization Module fills in itself, from the
#: configuration and its resources, per algorithm kind; ``extra`` may not
#: pass them a second time.
_SUPPLIED_KEYWORDS = {
    "relational": frozenset({"k", "hierarchies", "attributes"}),
    "transaction": frozenset(
        {"k", "m", "hierarchy", "attribute", "privacy_policy", "utility_policy"}
    ),
    "rt": frozenset(
        {
            "k",
            "m",
            "delta",
            "relational_algorithm",
            "transaction_algorithm",
            "hierarchies",
            "item_hierarchy",
            "relational_attributes",
            "transaction_attribute",
        }
    ),
}


@dataclass(frozen=True)
class AnonymizationConfig:
    """A complete description of one anonymization request."""

    #: Relational algorithm name (``incognito``, ``top-down``, ``cluster``,
    #: ``full-subtree``) or ``None`` when only transactions are anonymized.
    relational_algorithm: str | None = None
    #: Transaction algorithm name (``coat``, ``pcta``, ``apriori``, ``lra``,
    #: ``vpa``) or ``None`` when only relational attributes are anonymized.
    transaction_algorithm: str | None = None
    #: Bounding method (``rmerger``, ``tmerger``, ``rtmerger``) used when both
    #: algorithm kinds are selected (RT-datasets).
    bounding_method: str = "rtmerger"

    #: Privacy parameters.
    k: int = 5
    m: int = 2
    delta: float = 0.5

    #: Attribute selection; ``None`` means "all quasi-identifiers".
    relational_attributes: tuple[str, ...] | None = None
    transaction_attribute: str | None = None

    #: Automatic-generation knobs (used when hierarchies/policies are absent).
    hierarchy_fanout: int = 4
    privacy_strategy: str = "items"
    utility_strategy: str = "frequency"
    utility_group_size: int = 4

    #: Free-form display label (defaults to a description of the algorithms).
    label: str | None = None

    #: Extra keyword arguments forwarded to the algorithm constructors.
    extra: dict[str, Any] = field(default_factory=dict)

    def __post_init__(self) -> None:
        if self.relational_algorithm is None and self.transaction_algorithm is None:
            raise ConfigurationError(
                "a configuration needs a relational and/or a transaction algorithm"
            )
        if self.relational_algorithm is not None:
            spec = get_spec(self.relational_algorithm)
            if spec.kind != "relational":
                raise ConfigurationError(
                    f"{self.relational_algorithm!r} is not a relational algorithm"
                )
        if self.transaction_algorithm is not None:
            spec = get_spec(self.transaction_algorithm)
            if spec.kind != "transaction":
                raise ConfigurationError(
                    f"{self.transaction_algorithm!r} is not a transaction algorithm"
                )
        if self.mode == "rt":
            spec = get_spec(self.bounding_method)
            if spec.kind != "rt":
                raise ConfigurationError(
                    f"{self.bounding_method!r} is not a bounding method"
                )
        if self.k < 2:
            raise ConfigurationError("k must be at least 2")
        if self.m < 1:
            raise ConfigurationError("m must be at least 1")
        if not 0 <= self.delta <= 1:
            raise ConfigurationError("delta must lie in [0, 1]")
        if self.relational_attributes is not None:
            object.__setattr__(
                self, "relational_attributes", tuple(self.relational_attributes)
            )
        # ``extra`` maps the kind of a selected algorithm to keywords of its class.
        selected = {
            "relational": self.relational_algorithm,
            "transaction": self.transaction_algorithm,
            "rt": self.bounding_method if self.mode == "rt" else None,
        }
        for kind, keywords in self.extra.items():
            if selected.get(kind) is None or not isinstance(keywords, dict):
                choices = sorted(key for key, name in selected.items() if name)
                raise ConfigurationError(
                    f"extra[{kind!r}] must be a dict of keywords under one of {choices}"
                )
            parameters = set(inspect.signature(get_spec(selected[kind]).cls).parameters)
            accepted = sorted(parameters - _SUPPLIED_KEYWORDS[kind])
            unknown = sorted(set(keywords) - parameters)
            if unknown:
                raise ConfigurationError(
                    f"{selected[kind]!r} takes no keyword {unknown}; it takes {accepted}"
                )
            supplied = sorted(_SUPPLIED_KEYWORDS[kind] & set(keywords))
            if supplied:
                raise ConfigurationError(
                    f"extra[{kind!r}] may not set {supplied}: the configuration and "
                    f"its resources supply them to {selected[kind]!r}, which takes {accepted}"
                )

    # -- derived views ----------------------------------------------------------
    @property
    def mode(self) -> str:
        """``"relational"``, ``"transaction"`` or ``"rt"``."""
        if self.relational_algorithm and self.transaction_algorithm:
            return "rt"
        if self.relational_algorithm:
            return "relational"
        return "transaction"

    def relational_attributes_in(self, dataset: "Dataset") -> list[str]:
        """The selected relational attributes; all quasi-identifiers by default."""
        if self.relational_attributes is not None:
            return list(self.relational_attributes)
        return quasi_identifier_attributes(dataset)

    def transaction_attribute_in(self, dataset: "Dataset") -> str | None:
        """The selected transaction attribute; the dataset's first by default."""
        if self.transaction_attribute:
            return self.transaction_attribute
        names = dataset.schema.transaction_names
        return names[0] if names else None

    @property
    def display_label(self) -> str:
        if self.label:
            return self.label
        if self.mode == "rt":
            return (
                f"{self.relational_algorithm}+{self.transaction_algorithm}"
                f"/{self.bounding_method}"
            )
        return self.relational_algorithm or self.transaction_algorithm

    def describe(self) -> dict[str, Any]:
        """A flat, report-friendly description of the configuration."""
        return {
            "label": self.display_label,
            "mode": self.mode,
            "relational_algorithm": self.relational_algorithm,
            "transaction_algorithm": self.transaction_algorithm,
            "bounding_method": self.bounding_method if self.mode == "rt" else None,
            "k": self.k,
            "m": self.m,
            "delta": self.delta,
        }

    # -- sweeping ------------------------------------------------------------------
    def with_parameter(self, parameter: str, value: Any) -> "AnonymizationConfig":
        """A copy of the configuration with one (sweepable) parameter replaced."""
        if parameter not in SWEEPABLE_PARAMETERS:
            raise ConfigurationError(
                f"cannot vary parameter {parameter!r}; "
                f"expected one of {SWEEPABLE_PARAMETERS}"
            )
        if parameter in ("k", "m"):
            value = int(value)
        else:
            value = float(value)
        return dataclasses.replace(self, **{parameter: value})

    def replace(self, **changes: Any) -> "AnonymizationConfig":
        """A copy of the configuration with arbitrary fields replaced."""
        return dataclasses.replace(self, **changes)


def relational_config(algorithm: str, k: int = 5, **kwargs: Any) -> AnonymizationConfig:
    """Convenience constructor for a relational-only configuration."""
    return AnonymizationConfig(relational_algorithm=algorithm, k=k, **kwargs)


def transaction_config(algorithm: str, k: int = 5, m: int = 2, **kwargs: Any) -> AnonymizationConfig:
    """Convenience constructor for a transaction-only configuration."""
    return AnonymizationConfig(transaction_algorithm=algorithm, k=k, m=m, **kwargs)


def rt_config(
    relational: str,
    transaction: str,
    bounding: str = "rtmerger",
    k: int = 5,
    m: int = 2,
    delta: float = 0.5,
    **kwargs: Any,
) -> AnonymizationConfig:
    """Convenience constructor for an RT-dataset configuration."""
    return AnonymizationConfig(
        relational_algorithm=relational,
        transaction_algorithm=transaction,
        bounding_method=bounding,
        k=k,
        m=m,
        delta=delta,
        **kwargs,
    )
