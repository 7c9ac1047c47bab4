"""Bounding methods for anonymizing RT-datasets (Poulis et al., ECML/PKDD 2013).

An RT-dataset mixes relational attributes (protected through k-anonymity) and
a transaction attribute (protected through k^m-anonymity).  SECRETA combines
one algorithm of each kind through a *bounding method*:

1. the relational algorithm forms equivalence classes (clusters) of at least
   ``k`` records,
2. the transaction algorithm anonymizes the transaction projection of every
   cluster so that, within the cluster, any combination of up to ``m`` items
   matches at least ``k`` records — together this yields (k, k^m)-anonymity,
3. clusters whose transaction part would have to be destroyed to reach the
   guarantee (utility loss above the threshold ``δ``) are *merged* with other
   clusters and re-anonymized.  The three bounding methods differ in how the
   merge partner is chosen:

   * **Rmerger** — the partner that increases the relational information loss
     the least (favours relational utility),
   * **Tmerger** — the partner whose transactions are most similar (favours
     transaction utility),
   * **RTmerger** — the partner with the best balanced combination of both.

SECRETA exposes 20 relational×transaction algorithm combinations, each usable
with any of the three bounding methods.

One transaction algorithm instance serves every cluster.  Apriori over the
bounding method's own item hierarchy (the default) runs on each cluster's
itemsets through :meth:`~repro.algorithms.transaction.apriori.AprioriAnonymizer.publish`;
any other algorithm runs on the cluster's ``Dataset.subset``.  Either is
scored by :func:`~repro.metrics.transaction.itemset_utility_loss`.

Most clusters never reach Apriori's search.  When every item of a cluster
is a leaf of the item hierarchy, and some combination of at most ``m``
children of the root is supported by fewer than ``k`` (but some) records,
the search can only end at the root: every finer cut refines the
root-children cut and so keeps a rare combination.  Such a cluster publishes
the root for each non-empty itemset, or suppresses every itemset when fewer
than ``k`` are non-empty, with UL exactly 1.0
(:func:`~repro.algorithms.transaction._itemcut.forced_root_publication`).
On ``eval-rt``'s 2,500 records this decides 461 of 487 clusters (seed 1).
"""

from __future__ import annotations

from typing import Callable, Mapping, Sequence

import numpy as np

from repro.algorithms.base import (
    AnonymizationResult,
    Anonymizer,
    PhaseTimer,
    relational_quasi_identifiers,
    validate_k,
)
from repro.algorithms.relational.cluster import ClusterAnonymizer
from repro.algorithms.transaction._itemcut import forced_root_publication
from repro.algorithms.transaction.apriori import AprioriAnonymizer
from repro.columnar import popcount_rows, posting_matrix
from repro.datasets.dataset import Dataset
from repro.exceptions import AlgorithmError, ConfigurationError
from repro.hierarchy.hierarchy import Hierarchy
from repro.metrics.relational import global_certainty_penalty
from repro.metrics.transaction import itemset_utility_loss, utility_loss


class _LcaReps:
    """The per-slot LCA node of one hierarchy-scored attribute, as integer ids.

    Ids index the hierarchy's :meth:`~repro.hierarchy.hierarchy.Hierarchy.ancestor_table`;
    ``-1`` marks a cluster with no value.  A single-valued cluster whose value
    is not in the hierarchy gets an id past the table, and raises the typed
    :class:`~repro.exceptions.HierarchyError` only where the merge score would
    have to climb the hierarchy from it.
    """

    def __init__(self, hierarchy: Hierarchy, capacity: int):
        self.hierarchy = hierarchy
        index, self._table, self._leaf_counts = hierarchy.ancestor_table()
        self._ids = dict(index)
        #: the LCA node id per slot
        self.ids = np.full(capacity, -1, dtype=np.int64)

    def id_of(self, label: str) -> int:
        return self._ids.setdefault(label, len(self._ids))

    def label_of(self, node: int) -> str:
        return list(self._ids)[node]

    def merged(self, rep: int, others: np.ndarray) -> np.ndarray:
        """The LCA id of the node ``rep`` with each of ``others``."""
        merged = np.where(others < 0, rep, others)
        if rep < 0:
            return merged
        lca = (others >= 0) & (others != rep)
        pairs = others[lca]
        if pairs.size:
            self._require_known(np.append(pairs, rep))
            table = self._table
            first_mismatch = np.argmin(table[pairs] == table[rep], axis=1)
            merged[lca] = table[rep, first_mismatch - 1]
        return merged

    def leaf_counts(self, ids: np.ndarray) -> np.ndarray:
        """Leaf count per node id (the LCA width a merge would publish)."""
        self._require_known(ids)
        return self._leaf_counts[ids]

    def _require_known(self, ids: np.ndarray) -> None:
        unknown = ids[ids >= len(self._table)]
        if unknown.size:
            self.hierarchy.node(self.label_of(unknown[0]))  # raises the typed error


class _MergeState:
    """Incrementally maintained per-cluster summaries for the merge phase.

    The scalar merge loop re-walks every member record of both clusters for
    every candidate partner at every merge step.  This state keeps, per
    cluster, exactly what the merge score needs — numeric lo/hi vectors,
    categorical distinct-value bitsets (plus the cluster's LCA node id for
    hierarchy-scored attributes), and transaction item bitsets — so scoring
    the worst cluster against *all* partners is one vectorized pass
    (``fmin``/``fmax`` widening, OR + popcount, and an ancestor-table LCA:
    one ``==`` against the worst cluster's ancestor row, an ``argmin`` for
    the first mismatch and a leaf-count gather).  Scores are numerically
    identical to the scalar re-scan of both clusters' members: the same
    operations run in the same attribute order, widths are integer leaf
    counts, and the LCA of a merged value set equals the LCA of the two
    clusters' LCA nodes.

    Summaries live in fixed-capacity slots, one per initial cluster.  A merge
    writes the merged summary into the worst cluster's slot in place, and
    ``_order`` maps the logical positions the caller sees (``keep +
    [merged]`` after each merge) to slots, so ties break exactly as they
    would over re-stacked rows.
    """

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
        self._attributes = list(attributes)
        self._n_attributes = max(len(self._attributes), 1)
        capacity = len(clusters)
        self._order = np.arange(capacity, dtype=np.int64)
        #: record index -> cluster position, used to scatter per-record
        #: occurrences into per-cluster bitsets.
        membership = np.empty(len(dataset), dtype=np.int64)
        for position, cluster in enumerate(clusters):
            membership[np.asarray(cluster, dtype=np.int64)] = position

        #: ("num", span, lo, hi) / ("cat", denominator, bits, reps or None)
        #: per contributing attribute, in order.
        self._relational: list[tuple] = []
        if strategy in ("r", "rt"):
            for name in self._attributes:
                if name in helper._numeric:
                    span = helper._domain_span[name]
                    if span <= 0:
                        continue
                    numbers = dataset.columnar(name).numbers
                    lo = np.full(capacity, np.inf)
                    hi = np.full(capacity, -np.inf)
                    for position, cluster in enumerate(clusters):
                        values = numbers[np.asarray(cluster, dtype=np.int64)]
                        lo[position] = np.fmin.reduce(values, initial=np.inf)
                        hi[position] = np.fmax.reduce(values, initial=-np.inf)
                    self._relational.append(("num", span, lo, hi))
                else:
                    size = helper._domain_size[name]
                    if size <= 1:
                        continue
                    cells, labels = dataset.columnar(name).string_codes()
                    present = cells < len(labels)
                    bits = posting_matrix(
                        membership[present], cells[present], capacity, len(labels)
                    )
                    hierarchy = helper.hierarchies.get(name)
                    reps: _LcaReps | None = None
                    if hierarchy is not None:
                        reps = _LcaReps(hierarchy, capacity)
                        for position, cluster in enumerate(clusters):
                            indices = np.asarray(cluster, dtype=np.int64)
                            codes = np.unique(cells[indices])
                            distinct = [labels[c] for c in codes if c < len(labels)]
                            if len(distinct) == 1:
                                reps.ids[position] = reps.id_of(distinct[0])
                            elif distinct:
                                reps.ids[position] = reps.id_of(
                                    hierarchy.lowest_common_ancestor(distinct)
                                )
                    self._relational.append(("cat", max(size - 1, 1), bits, reps))
        self._transaction_bits: np.ndarray | None = None
        if strategy in ("t", "rt"):
            column = dataset.columnar(attribute)
            self._transaction_bits = posting_matrix(
                membership[column.record_ids()],
                column.tokens,
                capacity,
                len(column.vocabulary),
            )

    # -- scoring -------------------------------------------------------------------
    def relational_scores(self, worst: int) -> np.ndarray:
        """Bounding-generalization NCP of merging ``worst`` with each cluster."""
        order = self._order
        slot = order[worst]
        cost = np.zeros(len(order))
        for spec in self._relational:
            if spec[0] == "num":
                _, span, lo, hi = spec
                width = np.maximum(hi[order], hi[slot]) - np.minimum(lo[order], lo[slot])
                cost += np.maximum(width, 0.0) / span
            else:
                _, denominator, bits, reps = spec
                counts = popcount_rows(bits | bits[slot])[order]
                width = counts.astype(np.float64)
                if reps is not None:
                    wide = np.flatnonzero(counts > 1)
                    merged = reps.merged(reps.ids[slot], reps.ids[order[wide]])
                    width[wide] = reps.leaf_counts(merged)
                cost += (width - 1.0) / denominator
        return cost / self._n_attributes

    def transaction_scores(self, worst: int) -> np.ndarray:
        """Jaccard distance between ``worst``'s item set and each cluster's."""
        bits = self._transaction_bits
        slot = self._order[worst]
        intersection = popcount_rows(bits & bits[slot])[self._order]
        union = popcount_rows(bits | bits[slot])[self._order]
        cost = np.zeros(len(self._order))
        covered = union > 0
        cost[covered] = 1.0 - intersection[covered] / union[covered]
        return cost

    def best_partner(self, worst: int) -> int:
        """The cheapest merge partner under the bounding method's strategy."""
        if self._strategy == "r":
            scores = self.relational_scores(worst)
        elif self._strategy == "t":
            scores = self.transaction_scores(worst)
        else:
            scores = 0.5 * self.relational_scores(worst) + 0.5 * self.transaction_scores(
                worst
            )
        scores[worst] = np.inf
        return int(np.argmin(scores))

    # -- update --------------------------------------------------------------------
    def merge(self, worst: int, partner: int) -> None:
        """Merge ``partner`` into ``worst``'s slot; the merged cluster goes last."""
        slot, other = self._order[worst], self._order[partner]
        for spec in self._relational:
            if spec[0] == "num":
                _, _, lo, hi = spec
                lo[slot] = min(lo[slot], lo[other])
                hi[slot] = max(hi[slot], hi[other])
            else:
                _, _, bits, reps = spec
                bits[slot] |= bits[other]
                if reps is not None:
                    reps.ids[slot] = reps.merged(reps.ids[slot], reps.ids[[other]])[0]
        if self._transaction_bits is not None:
            self._transaction_bits[slot] |= self._transaction_bits[other]
        self._order = np.append(np.delete(self._order, [worst, partner]), slot)


class RtBoundingAnonymizer(Anonymizer):
    """Base class of the three bounding methods (see module docstring)."""

    name = "rt-bounding"
    data_kind = "rt"
    #: Merge-partner policy: ``"r"``, ``"t"`` or ``"rt"`` (set by subclasses).
    merge_strategy = "rt"

    def __init__(
        self,
        k: int,
        m: int = 2,
        delta: float = 0.5,
        relational_algorithm: Anonymizer | None = None,
        transaction_algorithm: Anonymizer | None = None,
        hierarchies: Mapping[str, Hierarchy] | None = None,
        item_hierarchy: Hierarchy | None = None,
        relational_attributes: Sequence[str] | None = None,
        transaction_attribute: str | None = None,
        max_merges: int | None = None,
    ):
        if not 0 <= delta <= 1:
            raise ConfigurationError("delta must lie in [0, 1]")
        if m < 1:
            raise ConfigurationError("m must be at least 1")
        self.k = int(k)
        self.m = int(m)
        self.delta = float(delta)
        self.relational_algorithm = relational_algorithm
        self.transaction_algorithm = transaction_algorithm
        self.hierarchies = dict(hierarchies or {})
        self.item_hierarchy = item_hierarchy
        self.relational_attributes = (
            list(relational_attributes) if relational_attributes is not None else None
        )
        self.transaction_attribute = transaction_attribute
        self.max_merges = max_merges

    def parameters(self) -> dict:
        return {
            "k": self.k,
            "m": self.m,
            "delta": self.delta,
            "relational_algorithm": getattr(self.relational_algorithm, "name", "cluster"),
            "bounding": self.name,
        }

    # -- phase 1: relational clustering -------------------------------------------
    def _initial_clusters(
        self, dataset: Dataset, attributes: Sequence[str]
    ) -> tuple[list[list[int]], ClusterAnonymizer]:
        """Clusters of at least k records plus the helper used to generalize them."""
        helper = ClusterAnonymizer(self.k, self.hierarchies, attributes=list(attributes))
        algorithm = self.relational_algorithm
        if algorithm is None or isinstance(algorithm, ClusterAnonymizer):
            if isinstance(algorithm, ClusterAnonymizer):
                helper = algorithm
            clusters = helper.build_clusters(dataset, attributes)
            return clusters, helper
        # Any other relational algorithm: run it and use the equivalence
        # classes of its output as the initial clusters.
        result = algorithm.anonymize(dataset)
        groups = result.dataset.group_by(list(attributes))
        clusters = [sorted(indices) for indices in groups.values()]
        helper._prepare(dataset, list(attributes))
        return clusters, helper

    # -- phase 2: per-cluster transaction anonymization -----------------------------
    def _cluster_publisher(
        self, dataset: Dataset, attribute: str
    ) -> Callable[[Sequence[int]], tuple[list[frozenset], float]]:
        """A function anonymizing one cluster's itemsets; returns them and their UL.

        Apriori over bounding's own item hierarchy runs on the cluster's
        itemsets directly, unless :func:`forced_root_publication` decides
        the cluster first (see the module docstring).  Any other
        transaction algorithm runs on the cluster's ``subset`` of the
        dataset.
        """
        algorithm = self.transaction_algorithm or AprioriAnonymizer(
            self.k, self.m, hierarchy=self.item_hierarchy, attribute=self.transaction_attribute
        )
        hierarchy = self.item_hierarchy
        on_itemsets = (
            isinstance(algorithm, AprioriAnonymizer)
            and hierarchy is not None
            and algorithm.hierarchy is hierarchy
        )

        def publish(cluster: Sequence[int]) -> tuple[list[frozenset], float]:
            original = [dataset[index][attribute] for index in cluster]
            if on_itemsets:
                forced = forced_root_publication(original, hierarchy, algorithm.k, algorithm.m)
                if forced is not None:
                    return forced, 1.0
                published, _ = algorithm.publish(original, hierarchy)
            else:
                result = algorithm.anonymize(dataset.subset(cluster))
                published = result.dataset.column(attribute)
            return published, itemset_utility_loss(original, published, hierarchy)

        return publish

    # -- main -----------------------------------------------------------------------
    def anonymize(self, dataset: Dataset) -> AnonymizationResult:
        attributes = self.relational_attributes or relational_quasi_identifiers(dataset)
        if not attributes:
            raise AlgorithmError(f"{self.name}: the dataset has no relational quasi-identifiers")
        attribute = self.transaction_attribute or dataset.single_transaction_attribute()
        validate_k(self.k, len(dataset), self.name)
        publish = self._cluster_publisher(dataset, attribute)

        timer = PhaseTimer()
        with timer.phase("relational clustering"):
            clusters, helper = self._initial_clusters(dataset, attributes)
        initial_clusters = len(clusters)

        with timer.phase("transaction anonymization"):
            outputs = [publish(cluster) for cluster in clusters]

        merges = 0
        merge_budget = self.max_merges if self.max_merges is not None else len(clusters)
        state: _MergeState | None = None
        with timer.phase("cluster merging"):
            while len(clusters) > 1 and merges < merge_budget:
                losses = [loss for _, loss in outputs]
                worst = max(range(len(clusters)), key=lambda position: losses[position])
                if losses[worst] <= self.delta:
                    break
                if state is None:
                    state = _MergeState(
                        self.merge_strategy, helper, dataset, attributes, attribute, clusters
                    )
                partner = state.best_partner(worst)
                merged_cluster = sorted(clusters[worst] + clusters[partner])
                keep = [
                    position
                    for position in range(len(clusters))
                    if position not in (worst, partner)
                ]
                clusters = [clusters[position] for position in keep] + [merged_cluster]
                outputs = [outputs[position] for position in keep] + [publish(merged_cluster)]
                state.merge(worst, partner)
                merges += 1

        with timer.phase("apply"):
            anonymized = helper.generalize_clusters(
                dataset, clusters, attributes, name_suffix=self.name
            )
            published = anonymized.column(attribute)
            for cluster, (itemsets, _loss) in zip(clusters, outputs):
                for index, itemset in zip(cluster, itemsets):
                    published[index] = itemset
            anonymized.set_column(attribute, published)

        relational_gcp = global_certainty_penalty(
            dataset, anonymized, attributes=attributes, hierarchies=self.hierarchies
        )
        transaction_ul = utility_loss(
            dataset, anonymized, attribute=attribute, hierarchy=self.item_hierarchy
        )
        statistics = {
            "initial_clusters": initial_clusters,
            "final_clusters": len(clusters),
            "merges": merges,
            "relational_gcp": relational_gcp,
            "transaction_ul": transaction_ul,
            "max_cluster_ul": max((loss for _, loss in outputs), default=0.0),
            "cluster_assignment": [list(cluster) for cluster in clusters],
        }
        return AnonymizationResult(
            dataset=anonymized,
            algorithm=self.name,
            parameters=self.parameters(),
            runtime_seconds=timer.total,
            phase_seconds=timer.phases,
            statistics=statistics,
        )


class Rmerger(RtBoundingAnonymizer):
    """Merge partners are chosen to preserve relational utility."""

    name = "rmerger"
    merge_strategy = "r"


class Tmerger(RtBoundingAnonymizer):
    """Merge partners are chosen to preserve transaction utility."""

    name = "tmerger"
    merge_strategy = "t"


class RTmerger(RtBoundingAnonymizer):
    """Merge partners balance relational and transaction utility."""

    name = "rtmerger"
    merge_strategy = "rt"
