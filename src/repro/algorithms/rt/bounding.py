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
from repro.algorithms.transaction.apriori import AprioriAnonymizer
from repro.columnar import popcount_rows, posting_matrix
from repro.datasets.dataset import Dataset
from repro.exceptions import AlgorithmError, ConfigurationError
from repro.hierarchy.hierarchy import Hierarchy
from repro.metrics.relational import global_certainty_penalty
from repro.metrics.transaction import utility_loss

#: A factory producing a configured transaction anonymizer for one cluster.
TransactionFactory = Callable[[Dataset], Anonymizer]


class _MergeState:
    """Incrementally maintained per-cluster summaries for the merge phase.

    The scalar merge loop re-walks every member record of both clusters for
    every candidate partner at every merge step.  This state keeps, per
    cluster, exactly what the merge score needs — numeric lo/hi vectors,
    categorical distinct-value bitsets (plus the running LCA node for
    hierarchy-scored attributes), and transaction item bitsets — so scoring
    the worst cluster against *all* partners is one vectorized pass
    (``fmin``/``fmax`` widening, OR + popcount), and a merge updates the
    summaries in O(clusters) instead of rebuilding them.  Scores are
    numerically identical to the scalar re-scan of both clusters' members:
    the same operations run in the same attribute order, and the LCA of a
    merged value set equals the LCA of the two clusters' LCA nodes.
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
        self._n = len(clusters)
        #: record index -> cluster position, used to scatter per-record
        #: occurrences into per-cluster bitsets.
        membership = np.empty(len(dataset), dtype=np.int64)
        for position, cluster in enumerate(clusters):
            membership[np.asarray(cluster, dtype=np.int64)] = position

        #: ("num", span, lo, hi) / ("cat", denominator, bits, hierarchy,
        #: reps, width memo, lca memo) per contributing attribute, in order.
        self._relational: list[list] = []
        if strategy in ("r", "rt"):
            for name in self._attributes:
                if name in helper._numeric:
                    span = helper._domain_span[name]
                    if span <= 0:
                        continue
                    numbers = dataset.columnar(name).numbers
                    lo = np.full(self._n, np.inf)
                    hi = np.full(self._n, -np.inf)
                    for position, cluster in enumerate(clusters):
                        values = numbers[np.asarray(cluster, dtype=np.int64)]
                        lo[position] = np.fmin.reduce(values, initial=np.inf)
                        hi[position] = np.fmax.reduce(values, initial=-np.inf)
                    self._relational.append(["num", span, lo, hi])
                else:
                    size = helper._domain_size[name]
                    if size <= 1:
                        continue
                    cells, labels = dataset.columnar(name).string_codes()
                    present = cells < len(labels)
                    bits = posting_matrix(
                        membership[present], cells[present], self._n, len(labels)
                    )
                    hierarchy = helper.hierarchies.get(name)
                    reps: list[str | None] | None = None
                    if hierarchy is not None:
                        reps = []
                        for position, cluster in enumerate(clusters):
                            indices = np.asarray(cluster, dtype=np.int64)
                            codes = np.unique(cells[indices])
                            distinct = [labels[c] for c in codes if c < len(labels)]
                            if not distinct:
                                reps.append(None)
                            elif len(distinct) == 1:
                                reps.append(distinct[0])
                            else:
                                reps.append(hierarchy.lowest_common_ancestor(distinct))
                    self._relational.append(
                        ["cat", max(size - 1, 1), bits, hierarchy, reps, {}, {}]
                    )
        self._transaction_bits: np.ndarray | None = None
        if strategy in ("t", "rt"):
            column = dataset.columnar(attribute)
            self._transaction_bits = posting_matrix(
                membership[column.record_ids()],
                column.tokens,
                self._n,
                len(column.vocabulary),
            )

    # -- scoring -------------------------------------------------------------------
    def _merged_rep(self, spec: list, worst: int, partner: int) -> str | None:
        """LCA node of the merged distinct-value set (via the two cluster LCAs)."""
        _, _, _, hierarchy, reps, _, lca_memo = spec
        rep_w, rep_p = reps[worst], reps[partner]
        if rep_w is None:
            return rep_p
        if rep_p is None or rep_p == rep_w:
            return rep_w
        key = (rep_w, rep_p) if rep_w <= rep_p else (rep_p, rep_w)
        merged = lca_memo.get(key)
        if merged is None:
            merged = hierarchy.lowest_common_ancestor(key)
            lca_memo[key] = merged
        return merged

    def relational_scores(self, worst: int) -> np.ndarray:
        """Bounding-generalization NCP of merging ``worst`` with each cluster."""
        cost = np.zeros(self._n)
        for spec in self._relational:
            if spec[0] == "num":
                _, span, lo, hi = spec
                width = np.maximum(hi, hi[worst]) - np.minimum(lo, lo[worst])
                cost += np.maximum(width, 0.0) / span
            else:
                _, denominator, bits, hierarchy, _reps, width_memo, _ = spec
                counts = popcount_rows(bits | bits[worst])
                width = counts.astype(np.float64)
                if hierarchy is not None:
                    for partner in np.flatnonzero(counts > 1):
                        rep = self._merged_rep(spec, worst, int(partner))
                        leaf_count = width_memo.get(rep)
                        if leaf_count is None:
                            leaf_count = hierarchy.leaf_count(rep)
                            width_memo[rep] = leaf_count
                        width[partner] = leaf_count
                cost += (width - 1.0) / denominator
        return cost / self._n_attributes

    def transaction_scores(self, worst: int) -> np.ndarray:
        """Jaccard distance between ``worst``'s item set and each cluster's."""
        bits = self._transaction_bits
        intersection = popcount_rows(bits & bits[worst])
        union = popcount_rows(bits | bits[worst])
        cost = np.zeros(self._n)
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
        """Combine two clusters' summaries, mirroring ``keep + [merged]`` order."""
        keep = [p for p in range(self._n) if p not in (worst, partner)]
        for spec in self._relational:
            if spec[0] == "num":
                _, _, lo, hi = spec
                spec[2] = np.append(lo[keep], min(lo[worst], lo[partner]))
                spec[3] = np.append(hi[keep], max(hi[worst], hi[partner]))
            else:
                _, _, bits, hierarchy, reps, _, _ = spec
                merged_row = bits[worst] | bits[partner]
                spec[2] = np.vstack([bits[keep], merged_row[None, :]])
                if reps is not None:
                    spec[4] = [reps[p] for p in keep] + [
                        self._merged_rep(spec, worst, partner)
                    ]
        if self._transaction_bits is not None:
            bits = self._transaction_bits
            merged_row = bits[worst] | bits[partner]
            self._transaction_bits = np.vstack([bits[keep], merged_row[None, :]])
        self._n -= 1


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
        transaction_factory: TransactionFactory | None = None,
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
        self.transaction_factory = transaction_factory
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
    def _default_transaction_factory(self) -> TransactionFactory:
        def factory(_subset: Dataset) -> Anonymizer:
            return AprioriAnonymizer(
                self.k, self.m, hierarchy=self.item_hierarchy, attribute=self.transaction_attribute
            )

        return factory

    def _anonymize_cluster_transactions(
        self,
        dataset: Dataset,
        cluster: Sequence[int],
        attribute: str,
        factory: TransactionFactory,
    ) -> tuple[list[frozenset], float]:
        """Anonymize one cluster's transaction projection; return itemsets and UL."""
        subset = dataset.subset(cluster)
        algorithm = factory(subset)
        result = algorithm.anonymize(subset)
        itemsets = [record[attribute] for record in result.dataset]
        loss = utility_loss(
            subset, result.dataset, attribute=attribute, hierarchy=self.item_hierarchy
        )
        return itemsets, loss

    # -- main -----------------------------------------------------------------------
    def anonymize(self, dataset: Dataset) -> AnonymizationResult:
        attributes = self.relational_attributes or relational_quasi_identifiers(dataset)
        if not attributes:
            raise AlgorithmError(f"{self.name}: the dataset has no relational quasi-identifiers")
        attribute = self.transaction_attribute or dataset.single_transaction_attribute()
        validate_k(self.k, len(dataset), self.name)
        factory = self.transaction_factory or self._default_transaction_factory()

        timer = PhaseTimer()
        with timer.phase("relational clustering"):
            clusters, helper = self._initial_clusters(dataset, attributes)
        initial_clusters = len(clusters)

        with timer.phase("transaction anonymization"):
            outputs: list[tuple[list[frozenset], float]] = [
                self._anonymize_cluster_transactions(dataset, cluster, attribute, factory)
                for cluster in clusters
            ]

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
                outputs = [outputs[position] for position in keep] + [
                    self._anonymize_cluster_transactions(dataset, merged_cluster, attribute, factory)
                ]
                state.merge(worst, partner)
                merges += 1

        with timer.phase("apply"):
            anonymized = helper.generalize_clusters(
                dataset, clusters, attributes, name_suffix=self.name
            )
            for cluster, (itemsets, _loss) in zip(clusters, outputs):
                for position, index in enumerate(cluster):
                    anonymized.set_value(index, attribute, itemsets[position])

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
