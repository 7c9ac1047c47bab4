"""Experiment resources: hierarchies, policies and query workloads.

This is the headless counterpart of SECRETA's Policy Specification Module and
Configuration/Queries Editors: it holds the inputs an anonymization run needs
besides the dataset itself, and can generate any missing ones automatically
(hierarchies with the builders of :mod:`repro.hierarchy`, privacy/utility
policies with the strategies of :mod:`repro.policies`, query workloads with
:func:`repro.queries.generate_query_workload`).

:meth:`ExperimentResources.for_config` resolves what one configuration reads:
what the caller supplied, as given, and everything else from a memo keyed by
the arguments each generator takes.  So a configuration reads the same
artefacts whatever was resolved before it, and configurations whose
generation knobs agree share one generated object.
"""

from __future__ import annotations

from dataclasses import dataclass, field, fields
from typing import Any, Callable

from repro.algorithms.registry import get_spec
from repro.datasets.dataset import Dataset
from repro.datasets.domains import DatasetDomains
from repro.engine.config import AnonymizationConfig
from repro.hierarchy.builders import build_hierarchies_for_dataset, build_item_hierarchy
from repro.hierarchy.hierarchy import Hierarchy
from repro.policies.generation import generate_privacy_policy, generate_utility_policy
from repro.policies.privacy import PrivacyPolicy
from repro.policies.utility import UtilityPolicy
from repro.queries.workload import QueryWorkload, generate_query_workload


class _Memo(dict):
    """Generated artefacts keyed by the arguments of their generator."""

    def generate(self, key: tuple, generator: Callable, *args: Any, **kwargs: Any) -> Any:
        """The artefact at ``key``; ``generator(*args, **kwargs)`` makes a missing one."""
        if key not in self:
            self[key] = generator(*args, **kwargs)
        return self[key]

    def given(self, artefact: Any) -> Any:
        """``artefact`` if the caller supplied it; ``None`` if it was generated."""
        if any(artefact is generated for generated in self.values()):
            return None
        return artefact


@dataclass
class ExperimentResources:
    """The non-dataset inputs of an anonymization experiment."""

    hierarchies: dict[str, Hierarchy] = field(default_factory=dict)
    item_hierarchy: Hierarchy | None = None
    privacy_policy: PrivacyPolicy | None = None
    utility_policy: UtilityPolicy | None = None
    workload: QueryWorkload | None = None
    #: Attribute-domain snapshot of the *original* dataset, captured once
    #: per resources object; query estimation resolves hierarchy-free generalized
    #: labels against it.
    domains: DatasetDomains | None = None

    # The memo of generated artefacts is not a field: keys never encode it,
    # and it stays in this process.
    def __getstate__(self) -> dict:
        state = dict(self.__dict__)
        state.pop("_memo", None)
        return state

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

    # -- resolution ---------------------------------------------------------------
    def ensure_for(
        self,
        dataset: Dataset,
        config: AnonymizationConfig,
        workload_queries: int = 50,
        seed: int = 0,
    ) -> None:
        """Set every field to what ``config`` reads (see :meth:`for_config`)."""
        resolved = self.for_config(dataset, config, workload_queries, seed)
        for slot in fields(self):
            setattr(self, slot.name, getattr(resolved, slot.name))

    def for_config(
        self,
        dataset: Dataset,
        config: AnonymizationConfig,
        workload_queries: int = 50,
        seed: int = 0,
    ) -> "ExperimentResources":
        """The resources exactly as ``config`` reads them; ``self`` is unchanged.

        A slot holding an artefact that this object's memo did not generate
        belongs to the caller and is used as given; the privacy policy only
        where its ``k`` is the configuration's.  Every other artefact
        ``config`` reads comes from the memo, keyed by the arguments of its
        generator, so each is generated once and never depends on the
        configurations resolved before.  Generated artefacts ``config`` does
        not read are left out.  The workload and the domains depend on no
        configuration: a filled slot is kept whoever filled it.
        """
        memo = self.__dict__.setdefault("_memo", _Memo())
        attribute = config.transaction_attribute_in(dataset)
        fanout = config.hierarchy_fanout
        hierarchies = {
            name: hierarchy
            for name, hierarchy in self.hierarchies.items()
            if memo.given(hierarchy) is not None
        }
        if config.relational_algorithm is not None:
            for name in config.relational_attributes_in(dataset):
                if name in hierarchies:
                    continue
                key = ("hierarchy", name, fanout)
                if key not in memo:
                    memo[key] = build_hierarchies_for_dataset(
                        dataset, fanout=fanout, attributes=[name]
                    )[name]
                hierarchies[name] = memo[key]
        item_hierarchy = memo.given(self.item_hierarchy)
        privacy_policy = memo.given(self.privacy_policy)
        utility_policy = memo.given(self.utility_policy)
        if config.transaction_algorithm is not None and attribute:
            if item_hierarchy is None:
                key = ("item hierarchy", attribute, fanout)
                if key not in memo:
                    memo[key] = build_item_hierarchy(
                        dataset.item_universe(attribute), fanout=fanout, attribute=attribute
                    )
                item_hierarchy = memo[key]
            if get_spec(config.transaction_algorithm).uses_policies:
                if privacy_policy is None or privacy_policy.k != config.k:
                    privacy_policy = memo.generate(
                        ("privacy", attribute, config.k, config.privacy_strategy),
                        generate_privacy_policy,
                        dataset,
                        k=config.k,
                        strategy=config.privacy_strategy,
                        attribute=attribute,
                    )
                if utility_policy is None:
                    utility_policy = memo.generate(
                        (
                            "utility",
                            attribute,
                            item_hierarchy,
                            config.utility_strategy,
                            config.utility_group_size,
                        ),
                        generate_utility_policy,
                        dataset,
                        strategy=config.utility_strategy,
                        attribute=attribute,
                        group_size=config.utility_group_size,
                        hierarchy=item_hierarchy,
                    )
        domains = self.domains
        if domains is None and len(dataset):
            # Snapshot the original attribute domains before anonymization:
            # universe-aware ARE resolves generalized labels against them.
            domains = memo.generate(("domains",), DatasetDomains.capture, dataset)
        workload = self.workload
        if workload is None and self._can_generate_workload(dataset):
            workload = memo.generate(
                ("workload", workload_queries, seed),
                generate_query_workload,
                dataset,
                n_queries=workload_queries,
                seed=seed,
            )
        return ExperimentResources(
            hierarchies, item_hierarchy, privacy_policy, utility_policy, workload, domains
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
