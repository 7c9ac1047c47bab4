"""VPA: Vertical Partitioning Anonymization for set-valued data (Terrovitis et al., VLDB J. 2011).

VPA attacks the combinatorial cost of k^m-anonymization from the other
direction than LRA: instead of splitting the *records*, it splits the *item
universe* into parts, anonymizes the projection of the dataset on each part
independently (a much smaller problem), and then runs a final repair pass on
the recombined dataset to fix combinations that span different parts.

All phases share a single global generalization cut over the item hierarchy,
so the repair pass starts from the per-part solutions instead of from
scratch; the final result is checked (and if necessary further generalized)
against the full dataset, which is what guarantees k^m-anonymity.
"""

from __future__ import annotations

import numpy as np

from repro.algorithms.base import (
    AnonymizationResult,
    Anonymizer,
    PhaseTimer,
    publish_items,
)
from repro.algorithms.transaction._itemcut import ItemCut, greedy_km_anonymize
from repro.datasets.dataset import Dataset
from repro.exceptions import AlgorithmError, ConfigurationError
from repro.hierarchy.builders import build_item_hierarchy
from repro.hierarchy.hierarchy import Hierarchy
from repro.metrics.transaction import utility_loss


class VpaAnonymizer(Anonymizer):
    """k^m-anonymity via vertical partitioning plus a global repair pass."""

    name = "vpa"
    data_kind = "transaction"

    def __init__(
        self,
        k: int,
        m: int = 2,
        hierarchy: Hierarchy | None = None,
        attribute: str | None = None,
        n_parts: int = 3,
        hierarchy_fanout: int = 4,
    ):
        if k < 2:
            raise ConfigurationError("VpaAnonymizer: k must be at least 2")
        if m < 1:
            raise ConfigurationError("VpaAnonymizer: m must be at least 1")
        if n_parts < 1:
            raise ConfigurationError("VpaAnonymizer: n_parts must be at least 1")
        self.k = int(k)
        self.m = int(m)
        self.hierarchy = hierarchy
        self.attribute = attribute
        self.n_parts = int(n_parts)
        self.hierarchy_fanout = hierarchy_fanout

    def parameters(self) -> dict:
        return {
            "k": self.k,
            "m": self.m,
            "attribute": self.attribute,
            "n_parts": self.n_parts,
        }

    def _partition_items(self, universe: set[str]) -> list[set[str]]:
        """Split the item universe into balanced, contiguous parts."""
        ordered = sorted(universe)
        parts = np.array_split(np.arange(len(ordered)), min(self.n_parts, len(ordered)))
        return [
            {ordered[index] for index in part.tolist()} for part in parts if len(part)
        ]

    def anonymize(self, dataset: Dataset) -> AnonymizationResult:
        attribute = self.attribute or dataset.single_transaction_attribute()
        timer = PhaseTimer()
        universe = dataset.item_universe(attribute)
        if not universe:
            raise AlgorithmError("VpaAnonymizer: the transaction attribute is empty")
        with timer.phase("hierarchy"):
            hierarchy = self.hierarchy or build_item_hierarchy(
                universe, fanout=self.hierarchy_fanout, attribute=attribute
            )

        itemsets = dataset.column(attribute)
        cut = ItemCut(hierarchy, universe)

        with timer.phase("per-part anonymization"):
            parts = self._partition_items(universe)
            part_steps = 0
            for part in parts:
                projections = [
                    frozenset(item for item in itemset if item in part)
                    for itemset in itemsets
                ]
                cut, statistics = greedy_km_anonymize(
                    projections, hierarchy, self.k, self.m, cut=cut, apriori_order=True
                )
                part_steps += statistics["generalization_steps"]

        with timer.phase("global repair"):
            cut, repair_statistics = greedy_km_anonymize(
                itemsets, hierarchy, self.k, self.m, cut=cut, apriori_order=True
            )

        suppressed_everything = bool(repair_statistics["unresolvable_violations"])
        with timer.phase("apply"):
            anonymized = publish_items(
                dataset,
                attribute,
                self.name,
                [None if suppressed_everything else cut.mapping],
            )

        statistics = {
            "parts": len(parts),
            "part_generalization_steps": part_steps,
            "repair_generalization_steps": repair_statistics["generalization_steps"],
            "final_nodes": repair_statistics["final_nodes"],
            "suppressed_everything": suppressed_everything,
            "utility_loss": utility_loss(
                dataset, anonymized, attribute=attribute, hierarchy=hierarchy
            ),
        }
        return AnonymizationResult(
            dataset=anonymized,
            algorithm=self.name,
            parameters=self.parameters(),
            runtime_seconds=timer.total,
            phase_seconds=timer.phases,
            statistics=statistics,
        )
