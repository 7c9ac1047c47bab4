"""Scalar reference of the RT bounding methods' merge-partner selection.

``_MergeState`` scores the worst cluster against every partner from
incrementally maintained per-cluster summaries.  The reference below
re-walks every member record of both clusters for every candidate partner,
as the merge loop did before the summaries existed:

* :func:`merge_score` — the bounding-generalization NCP of the merged
  cluster (Rmerger), the Jaccard distance of the two clusters' item sets
  (Tmerger), or their even blend (RTmerger);
* :class:`ScalarMergeState` — the same interface as ``_MergeState``
  (``best_partner`` / ``merge`` / ``order``) over :func:`merge_score`, so an
  end-to-end run can swap it in and compare outputs.

The merge loop itself keeps clusters, outputs and losses in fixed slots.
:func:`list_merge_loop` restates the loop it replaced, which re-stacked its
lists after every merge (``keep + [merged]``), with :func:`row_publisher`,
the per-cluster publish of that loop: rows first, then the forced-root
check over them, then the search.
"""

from __future__ import annotations

from typing import Callable, Sequence

import numpy as np

from oracles.itemcut import forced_root_publication
from oracles.relational import cluster_cost_scalar
from repro.algorithms import AprioriAnonymizer, ClusterAnonymizer
from repro.datasets import Dataset
from repro.metrics.transaction import itemset_utility_loss


def cluster_items(dataset: Dataset, cluster: Sequence[int], attribute: str) -> set:
    items: set = set()
    for index in cluster:
        items |= set(dataset[index][attribute])
    return items


def relational_merge_cost(
    helper: ClusterAnonymizer,
    dataset: Dataset,
    attributes: Sequence[str],
    cluster_a: Sequence[int],
    cluster_b: Sequence[int],
) -> float:
    merged = list(cluster_a) + list(cluster_b)
    return cluster_cost_scalar(helper, dataset, list(attributes), merged)


def transaction_merge_cost(
    dataset: Dataset, cluster_a: Sequence[int], cluster_b: Sequence[int], attribute: str
) -> float:
    items_a = cluster_items(dataset, cluster_a, attribute)
    items_b = cluster_items(dataset, cluster_b, attribute)
    union = items_a | items_b
    if not union:
        return 0.0
    jaccard = len(items_a & items_b) / len(union)
    return 1.0 - jaccard


def merge_score(
    strategy: str,
    helper: ClusterAnonymizer,
    dataset: Dataset,
    attributes: Sequence[str],
    attribute: str,
    cluster_a: Sequence[int],
    cluster_b: Sequence[int],
) -> float:
    """Cost of merging two clusters under a bounding method's ``strategy``."""
    if strategy == "r":
        return relational_merge_cost(helper, dataset, attributes, cluster_a, cluster_b)
    if strategy == "t":
        return transaction_merge_cost(dataset, cluster_a, cluster_b, attribute)
    relational = relational_merge_cost(helper, dataset, attributes, cluster_a, cluster_b)
    transactional = transaction_merge_cost(dataset, cluster_a, cluster_b, attribute)
    return 0.5 * relational + 0.5 * transactional


class ScalarMergeState:
    """``_MergeState``'s interface over a per-partner :func:`merge_score` re-scan."""

    def __init__(
        self,
        strategy: str,
        helper: ClusterAnonymizer,
        dataset: Dataset,
        attributes: Sequence[str],
        attribute: str,
        clusters: Sequence[Sequence[int]],
    ):
        self._strategy = strategy
        self._helper = helper
        self._dataset = dataset
        self._attributes = list(attributes)
        self._attribute = attribute
        #: the clusters in logical order, and the slot each one lives in
        self._clusters = [list(cluster) for cluster in clusters]
        self.order = np.arange(len(clusters))

    def best_partner(self, worst: int) -> int:
        candidates = [p for p in range(len(self._clusters)) if p != worst]
        return min(
            candidates,
            key=lambda position: merge_score(
                self._strategy,
                self._helper,
                self._dataset,
                self._attributes,
                self._attribute,
                self._clusters[worst],
                self._clusters[position],
            ),
        )

    def merge(self, worst: int, partner: int) -> None:
        merged = sorted(self._clusters[worst] + self._clusters[partner])
        keep = [p for p in range(len(self._clusters)) if p not in (worst, partner)]
        self._clusters = [self._clusters[p] for p in keep] + [merged]
        self.order = np.append(self.order[keep], self.order[worst])


def row_publisher(
    algorithm, hierarchy, dataset: Dataset, attribute: str
) -> Callable[[Sequence[int]], tuple[list[frozenset], float]]:
    """One cluster's published itemsets and UL, from its rows."""
    on_itemsets = (
        isinstance(algorithm, AprioriAnonymizer)
        and hierarchy is not None
        and algorithm.hierarchy is hierarchy
    )

    def publish(cluster):
        original = [dataset[index][attribute] for index in cluster]
        if on_itemsets:
            forced = forced_root_publication(original, hierarchy, algorithm.k, algorithm.m)
            if forced is not None:
                return forced, 1.0
            published, _ = algorithm.publish(original, hierarchy)
        else:
            published = algorithm.anonymize(dataset.subset(cluster)).dataset.column(attribute)
        return published, itemset_utility_loss(original, published, hierarchy)

    return publish


def list_merge_loop(state, publish, clusters, delta: float, merge_budget: int):
    """The merge phase over lists re-stacked after every merge.

    ``state`` scores partners by logical position (a fresh ``_MergeState``
    or :class:`ScalarMergeState` over ``clusters``).  Returns the (worst,
    partner) positions of every merge, the final clusters and their outputs.
    """
    clusters = [list(cluster) for cluster in clusters]
    outputs = [publish(cluster) for cluster in clusters]
    picks: list[tuple[int, int]] = []
    while len(clusters) > 1 and len(picks) < merge_budget:
        losses = [loss for _, loss in outputs]
        worst = max(range(len(clusters)), key=lambda position: losses[position])
        if losses[worst] <= delta:
            break
        partner = state.best_partner(worst)
        picks.append((worst, partner))
        merged = sorted(clusters[worst] + clusters[partner])
        keep = [p for p in range(len(clusters)) if p not in (worst, partner)]
        clusters = [clusters[p] for p in keep] + [merged]
        outputs = [outputs[p] for p in keep] + [publish(merged)]
        state.merge(worst, partner)
    return picks, clusters, outputs
