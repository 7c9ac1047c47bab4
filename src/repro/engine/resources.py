"""Experiment resources: hierarchies, policies and query workloads.

This is the headless counterpart of SECRETA's Policy Specification Module and
Configuration/Queries Editors: it holds the inputs an anonymization run needs
besides the dataset itself, and can generate any missing ones automatically
(hierarchies with the builders of :mod:`repro.hierarchy`, privacy/utility
policies with the strategies of :mod:`repro.policies`, query workloads with
:func:`repro.queries.generate_query_workload`).
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.datasets.dataset import Dataset
from repro.datasets.domains import DatasetDomains
from repro.engine.config import AnonymizationConfig
from repro.hierarchy.builders import build_hierarchies_for_dataset, build_item_hierarchy
from repro.hierarchy.hierarchy import Hierarchy
from repro.policies.generation import generate_privacy_policy, generate_utility_policy
from repro.policies.privacy import PrivacyPolicy
from repro.policies.utility import UtilityPolicy
from repro.queries.workload import QueryWorkload, generate_query_workload


@dataclass
class ExperimentResources:
    """The non-dataset inputs of an anonymization experiment."""

    hierarchies: dict[str, Hierarchy] = field(default_factory=dict)
    item_hierarchy: Hierarchy | None = None
    privacy_policy: PrivacyPolicy | None = None
    utility_policy: UtilityPolicy | None = None
    workload: QueryWorkload | None = None
    #: Attribute-domain snapshot of the *original* dataset, captured at
    #: prepare time; query estimation resolves hierarchy-free generalized
    #: labels against it.
    domains: DatasetDomains | None = None

    @classmethod
    def prepare(
        cls,
        dataset: Dataset,
        config: AnonymizationConfig,
        hierarchies: dict[str, Hierarchy] | None = None,
        item_hierarchy: Hierarchy | None = None,
        privacy_policy: PrivacyPolicy | None = None,
        utility_policy: UtilityPolicy | None = None,
        workload: QueryWorkload | None = None,
        workload_queries: int = 50,
        seed: int = 0,
        domains: DatasetDomains | None = None,
    ) -> "ExperimentResources":
        """Assemble resources for ``config``, generating whatever is missing."""
        resources = cls(
            hierarchies=dict(hierarchies or {}),
            item_hierarchy=item_hierarchy,
            privacy_policy=privacy_policy,
            utility_policy=utility_policy,
            workload=workload,
            domains=domains,
        )
        resources.ensure_for(dataset, config, workload_queries=workload_queries, seed=seed)
        return resources

    # -- completion ---------------------------------------------------------------
    def ensure_for(
        self,
        dataset: Dataset,
        config: AnonymizationConfig,
        workload_queries: int = 50,
        seed: int = 0,
    ) -> None:
        """Generate any resource the configuration needs but does not have."""
        transaction_attribute = self._transaction_attribute(dataset, config)
        if config.relational_algorithm is not None:
            self._ensure_relational_hierarchies(dataset, config)
        if config.transaction_algorithm is not None and transaction_attribute:
            self._ensure_item_hierarchy(dataset, config, transaction_attribute)
            self._ensure_policies(dataset, config, transaction_attribute)
        if self.domains is None and len(dataset):
            # Snapshot the original attribute domains before anonymization:
            # universe-aware ARE resolves generalized labels against them.
            self.domains = DatasetDomains.capture(dataset)
        if self.workload is None and self._can_generate_workload(dataset):
            self.workload = generate_query_workload(
                dataset, n_queries=workload_queries, seed=seed
            )

    def _can_generate_workload(self, dataset: Dataset) -> bool:
        """Whether the dataset has anything a generated workload could query.

        A dataset with no quasi-identifier relational attributes and no
        transaction attribute (or no records) cannot seed queries; the
        workload then stays ``None`` and the evaluator skips ARE instead of
        crashing on generation.
        """
        if not len(dataset):
            return False
        if dataset.schema.transaction_names:
            return True
        return any(
            attribute.quasi_identifier for attribute in dataset.schema.relational
        )

    def _transaction_attribute(
        self, dataset: Dataset, config: AnonymizationConfig
    ) -> str | None:
        if config.transaction_attribute:
            return config.transaction_attribute
        names = dataset.schema.transaction_names
        return names[0] if names else None

    def _relational_attributes(
        self, dataset: Dataset, config: AnonymizationConfig
    ) -> list[str]:
        if config.relational_attributes is not None:
            return list(config.relational_attributes)
        return [
            attribute.name
            for attribute in dataset.schema.relational
            if attribute.quasi_identifier
        ]

    def _ensure_relational_hierarchies(
        self, dataset: Dataset, config: AnonymizationConfig
    ) -> None:
        needed = [
            name
            for name in self._relational_attributes(dataset, config)
            if name not in self.hierarchies
        ]
        if needed:
            # A new dict: shallow copies of these resources share the old one.
            self.hierarchies = {
                **self.hierarchies,
                **build_hierarchies_for_dataset(
                    dataset, fanout=config.hierarchy_fanout, attributes=needed
                ),
            }

    def _ensure_item_hierarchy(
        self, dataset: Dataset, config: AnonymizationConfig, attribute: str
    ) -> None:
        if self.item_hierarchy is None:
            self.item_hierarchy = build_item_hierarchy(
                dataset.item_universe(attribute),
                fanout=config.hierarchy_fanout,
                attribute=attribute,
            )

    def _ensure_policies(
        self, dataset: Dataset, config: AnonymizationConfig, attribute: str
    ) -> None:
        from repro.algorithms.registry import get_spec

        spec = get_spec(config.transaction_algorithm)
        if not spec.uses_policies:
            return
        if self.privacy_policy is None or self.privacy_policy.k != config.k:
            self.privacy_policy = generate_privacy_policy(
                dataset,
                k=config.k,
                strategy=config.privacy_strategy,
                attribute=attribute,
            )
        if self.utility_policy is None:
            self.utility_policy = generate_utility_policy(
                dataset,
                strategy=config.utility_strategy,
                attribute=attribute,
                group_size=config.utility_group_size,
                hierarchy=self.item_hierarchy,
            )

    # -- reporting -----------------------------------------------------------------
    def hierarchies_with_items(self, transaction_attribute: str | None) -> dict[str, Hierarchy]:
        """All hierarchies keyed by attribute, including the item hierarchy."""
        combined = dict(self.hierarchies)
        if self.item_hierarchy is not None and transaction_attribute:
            combined[transaction_attribute] = self.item_hierarchy
        return combined

    def summary(self) -> dict:
        return {
            "hierarchies": sorted(self.hierarchies),
            "item_hierarchy": self.item_hierarchy is not None,
            "privacy_constraints": len(self.privacy_policy) if self.privacy_policy else 0,
            "utility_constraints": len(self.utility_policy) if self.utility_policy else 0,
            "workload_queries": len(self.workload) if self.workload else 0,
            "domains": self.domains.summary() if self.domains else None,
        }
