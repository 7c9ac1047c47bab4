"""The Anonymization Module: turn a configuration into an executed algorithm.

This is the backend component that SECRETA instantiates (possibly several
times, in parallel) to service anonymization requests: given a dataset, the
resolved resources (hierarchies, policies) and a configuration, it constructs
the concrete algorithm object — a single relational or transaction algorithm,
or a bounding method combining one of each — runs it, and returns the
:class:`~repro.algorithms.base.AnonymizationResult`.
"""

from __future__ import annotations

from repro.algorithms.base import AnonymizationResult, Anonymizer
from repro.algorithms.registry import get_spec
from repro.algorithms.rt.bounding import RtBoundingAnonymizer
from repro.algorithms.transaction.coat import Coat
from repro.algorithms.transaction.pcta import Pcta
from repro.datasets.dataset import Dataset
from repro.engine.config import AnonymizationConfig
from repro.engine.resources import ExperimentResources


class AnonymizationModule:
    """Builds and executes algorithms for one dataset and resource set."""

    def __init__(self, dataset: Dataset, resources: ExperimentResources) -> None:
        self.dataset = dataset
        self.resources = resources

    # -- construction -----------------------------------------------------------
    def build_relational(self, config: AnonymizationConfig) -> Anonymizer:
        return get_spec(config.relational_algorithm).cls(
            config.k,
            self.resources.hierarchies,
            attributes=config.relational_attributes,
            **config.extra.get("relational", {}),
        )

    def build_transaction(self, config: AnonymizationConfig) -> Anonymizer:
        cls = get_spec(config.transaction_algorithm).cls
        attribute = config.transaction_attribute
        extra = config.extra.get("transaction", {})
        if cls is Coat:
            return Coat(
                self.resources.privacy_policy,
                self.resources.utility_policy,
                attribute=attribute,
                **extra,
            )
        if cls is Pcta:
            return Pcta(self.resources.privacy_policy, attribute=attribute, **extra)
        return cls(
            config.k,
            config.m,
            hierarchy=self.resources.item_hierarchy,
            attribute=attribute,
            **extra,
        )

    def build_rt(self, config: AnonymizationConfig) -> RtBoundingAnonymizer:
        return get_spec(config.bounding_method).cls(
            k=config.k,
            m=config.m,
            delta=config.delta,
            relational_algorithm=self.build_relational(config),
            transaction_algorithm=self.build_transaction(config),
            hierarchies=self.resources.hierarchies,
            item_hierarchy=self.resources.item_hierarchy,
            relational_attributes=config.relational_attributes,
            transaction_attribute=config.transaction_attribute,
            **config.extra.get("rt", {}),
        )

    def build_algorithm(self, config: AnonymizationConfig) -> Anonymizer:
        """Instantiate the algorithm (or combination) a configuration describes."""
        mode = config.mode
        if mode == "relational":
            return self.build_relational(config)
        if mode == "transaction":
            return self.build_transaction(config)
        return self.build_rt(config)

    # -- execution ------------------------------------------------------------------
    def run(self, config: AnonymizationConfig) -> AnonymizationResult:
        """Build the algorithm ``config`` describes and execute it.

        The module's resources are used as given: resolve them for
        ``config`` first (:meth:`ExperimentResources.for_config`).
        """
        algorithm = self.build_algorithm(config)
        result = algorithm.anonymize(self.dataset)
        result.parameters.setdefault("configuration", config.display_label)
        return result
