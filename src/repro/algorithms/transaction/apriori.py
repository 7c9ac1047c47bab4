"""Apriori-based k^m-anonymization of transactions (Terrovitis et al., VLDB J. 2011).

The *Apriori Anonymization* (AA) algorithm protects a set-valued attribute
against adversaries who know up to ``m`` items of an individual: every
combination of up to ``m`` items must match at least ``k`` transactions (or
none).  The algorithm explores combinations in Apriori fashion — first single
items, then pairs, and so on — and whenever a combination is supported by
fewer than ``k`` transactions it generalizes the participating items using
full-subtree global recoding over the item hierarchy.

If even full generalization cannot protect the data (fewer than ``k``
non-empty transactions), the remaining items are suppressed and the fact is
reported in the result statistics.

:meth:`AprioriAnonymizer.publish` runs the whole algorithm on a list of
itemsets and returns the published itemsets, with no ``Dataset`` around
them; the RT bounding methods call it on each cluster's itemsets.
:meth:`~AprioriAnonymizer.anonymize` runs the same search on a dataset and
publishes the final cut as one remapped column.
"""

from __future__ import annotations

from typing import Sequence

from repro.algorithms.base import (
    AnonymizationResult,
    Anonymizer,
    PhaseTimer,
    publish_items,
)
from repro.algorithms.transaction._itemcut import greedy_km_anonymize
from repro.datasets.dataset import Dataset
from repro.exceptions import AlgorithmError, ConfigurationError
from repro.hierarchy.builders import build_item_hierarchy
from repro.hierarchy.hierarchy import Hierarchy
from repro.metrics.transaction import utility_loss


class AprioriAnonymizer(Anonymizer):
    """k^m-anonymity via apriori-style global full-subtree generalization."""

    name = "apriori"
    data_kind = "transaction"

    def __init__(
        self,
        k: int,
        m: int = 2,
        hierarchy: Hierarchy | None = None,
        attribute: str | None = None,
        hierarchy_fanout: int = 4,
    ):
        if k < 2:
            raise ConfigurationError("AprioriAnonymizer: k must be at least 2")
        if m < 1:
            raise ConfigurationError("AprioriAnonymizer: m must be at least 1")
        self.k = int(k)
        self.m = int(m)
        self.hierarchy = hierarchy
        self.attribute = attribute
        self.hierarchy_fanout = hierarchy_fanout

    def parameters(self) -> dict:
        return {"k": self.k, "m": self.m, "attribute": self.attribute}

    def _resolve_hierarchy(self, dataset: Dataset, attribute: str) -> Hierarchy:
        if self.hierarchy is not None:
            return self.hierarchy
        universe = dataset.item_universe(attribute)
        if not universe:
            raise AlgorithmError("AprioriAnonymizer: the transaction attribute is empty")
        return build_item_hierarchy(
            universe, fanout=self.hierarchy_fanout, attribute=attribute
        )

    def publish(
        self, itemsets: Sequence[frozenset[str]], hierarchy: Hierarchy
    ) -> tuple[list[frozenset[str]], dict]:
        """Anonymize ``itemsets`` through a k^m item cut of ``hierarchy``.

        Returns the published itemsets, in input order, and the search
        statistics.  When violations stay unresolvable even at the root,
        every itemset is suppressed (published empty).
        """
        cut, statistics = greedy_km_anonymize(
            itemsets, hierarchy, self.k, self.m, apriori_order=True
        )
        if statistics["unresolvable_violations"]:
            return [frozenset()] * len(itemsets), statistics
        return [cut.generalize_itemset(items) for items in itemsets], statistics

    def anonymize(self, dataset: Dataset) -> AnonymizationResult:
        attribute = self.attribute or dataset.single_transaction_attribute()
        timer = PhaseTimer()
        with timer.phase("hierarchy"):
            hierarchy = self._resolve_hierarchy(dataset, attribute)

        with timer.phase("apriori search"):
            cut, search_statistics = greedy_km_anonymize(
                dataset.column(attribute), hierarchy, self.k, self.m, apriori_order=True
            )

        suppressed_everything = bool(search_statistics["unresolvable_violations"])
        with timer.phase("apply"):
            anonymized = publish_items(
                dataset,
                attribute,
                self.name,
                [None if suppressed_everything else cut.mapping],
            )

        statistics = {
            **search_statistics,
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
