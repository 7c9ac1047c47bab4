"""The Anonymization Module: turn a configuration into an executed algorithm.

This is the backend component that SECRETA instantiates (possibly several
times, in parallel) to service anonymization requests: given a dataset, the
prepared resources (hierarchies, policies) and a configuration, it constructs
the concrete algorithm object — a single relational or transaction algorithm,
or a bounding method combining one of each — runs it, and returns the
:class:`~repro.algorithms.base.AnonymizationResult`.
"""

from __future__ import annotations

from repro.algorithms.base import AnonymizationResult, Anonymizer
from repro.algorithms.registry import get_spec
from repro.algorithms.relational.cluster import ClusterAnonymizer
from repro.algorithms.relational.fullsubtree import FullSubtreeBottomUp
from repro.algorithms.relational.incognito import Incognito
from repro.algorithms.relational.topdown import TopDownSpecialization
from repro.algorithms.rt.bounding import RtBoundingAnonymizer
from repro.algorithms.transaction.apriori import AprioriAnonymizer
from repro.algorithms.transaction.coat import Coat
from repro.algorithms.transaction.lra import LraAnonymizer
from repro.algorithms.transaction.pcta import Pcta
from repro.algorithms.transaction.vpa import VpaAnonymizer
from repro.datasets.dataset import Dataset
from repro.engine.config import AnonymizationConfig
from repro.engine.resources import ExperimentResources
from repro.exceptions import ConfigurationError

_RELATIONAL_CLASSES = {
    "incognito": Incognito,
    "top-down": TopDownSpecialization,
    "cluster": ClusterAnonymizer,
    "full-subtree": FullSubtreeBottomUp,
}
_TRANSACTION_CLASSES = {
    "apriori": AprioriAnonymizer,
    "lra": LraAnonymizer,
    "vpa": VpaAnonymizer,
}


class AnonymizationModule:
    """Builds and executes algorithms for one dataset and resource set."""

    def __init__(self, dataset: Dataset, resources: ExperimentResources) -> None:
        self.dataset = dataset
        self.resources = resources

    # -- construction -----------------------------------------------------------
    def _relational_attributes(self, config: AnonymizationConfig) -> list[str] | None:
        if config.relational_attributes is not None:
            return list(config.relational_attributes)
        return None

    def build_relational(self, config: AnonymizationConfig) -> Anonymizer:
        name = config.relational_algorithm
        if name not in _RELATIONAL_CLASSES:
            raise ConfigurationError(f"unknown relational algorithm {name!r}")
        cls = _RELATIONAL_CLASSES[name]
        return cls(
            config.k,
            self.resources.hierarchies,
            attributes=self._relational_attributes(config),
            **config.extra.get("relational", {}),
        )

    def build_transaction(self, config: AnonymizationConfig) -> Anonymizer:
        name = config.transaction_algorithm
        attribute = config.transaction_attribute
        if name == "coat":
            return Coat(
                self.resources.privacy_policy,
                self.resources.utility_policy,
                attribute=attribute,
                **config.extra.get("transaction", {}),
            )
        if name == "pcta":
            return Pcta(
                self.resources.privacy_policy,
                attribute=attribute,
                **config.extra.get("transaction", {}),
            )
        if name in _TRANSACTION_CLASSES:
            cls = _TRANSACTION_CLASSES[name]
            return cls(
                config.k,
                config.m,
                hierarchy=self.resources.item_hierarchy,
                attribute=attribute,
                **config.extra.get("transaction", {}),
            )
        raise ConfigurationError(f"unknown transaction algorithm {name!r}")

    def build_rt(self, config: AnonymizationConfig) -> RtBoundingAnonymizer:
        spec = get_spec(config.bounding_method)
        if spec.kind != "rt":
            raise ConfigurationError(
                f"{config.bounding_method!r} is not a bounding method"
            )
        return spec.cls(
            k=config.k,
            m=config.m,
            delta=config.delta,
            relational_algorithm=self.build_relational(config),
            transaction_algorithm=self.build_transaction(config),
            hierarchies=self.resources.hierarchies,
            item_hierarchy=self.resources.item_hierarchy,
            relational_attributes=self._relational_attributes(config),
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
        """Prepare resources for ``config``, build the algorithm and execute it."""
        self.resources.ensure_for(self.dataset, config)
        algorithm = self.build_algorithm(config)
        result = algorithm.anonymize(self.dataset)
        result.parameters.setdefault("configuration", config.display_label)
        return result
