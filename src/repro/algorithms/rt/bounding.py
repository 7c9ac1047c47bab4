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
than ``k`` are non-empty, with UL exactly 1.0 (:class:`_RootChildBits`).
The decision reads no rows: each cluster keeps one record bitset per child
of the root, built once from the transaction column's CSR and ORed on merge.
On ``eval-rt``'s 2,500 records this decides 461 of 487 clusters (seed 1).

The merge phase works in fixed-capacity slots, one per initial cluster.  A
slot holds a cluster, its published itemsets and UL, and its merge
summaries (:class:`_MergeState`); a merge writes the merged cluster into the
worst cluster's slot.  :attr:`_MergeState.order` lists the slots in the
logical order of the clusters (the kept ones, then the merged one), in which
ties break: the worst cluster is the first ``argmax`` of the losses in that
order, and the partner the first ``argmin`` of its merge scores.
"""

from __future__ import annotations

from typing import Mapping, Sequence

import numpy as np

from repro.algorithms.base import (
    AnonymizationResult,
    Anonymizer,
    PhaseTimer,
    relational_quasi_identifiers,
    validate_k,
)
from repro.algorithms.relational.cluster import ClusterAnonymizer, _ClusterBounds, _slot_layout
from repro.algorithms.transaction.apriori import AprioriAnonymizer
from repro.columnar import popcount_rows, posting_matrix
from repro.columnar.bitset import rare_combinations
from repro.columnar.column import TransactionColumn
from repro.datasets.dataset import Dataset
from repro.exceptions import AlgorithmError, ConfigurationError
from repro.hierarchy.hierarchy import Hierarchy
from repro.metrics.relational import global_certainty_penalty
from repro.metrics.transaction import itemset_utility_loss, utility_loss


class _MergeState:
    """Incrementally maintained per-cluster summaries for the merge phase.

    The scalar merge loop re-walks every member record of both clusters for
    every candidate partner at every merge step.  This state keeps, per
    cluster, exactly what the merge score needs: the relational bounds
    (:class:`~repro.algorithms.relational.cluster._ClusterBounds`: numeric
    lo/hi vectors, categorical distinct-value bitsets and the clusters' LCA
    node ids) and transaction item bitsets, so scoring the worst cluster
    against *all* partners is one vectorized pass.  Scores are numerically
    identical to the scalar re-scan of both clusters' members.

    Summaries live in fixed-capacity slots, one per initial cluster.  A merge
    writes the merged summary into the worst cluster's slot in place, and
    :attr:`order` maps the logical positions the caller sees (``keep +
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
        capacity = len(clusters)
        #: logical position -> slot
        self.order = np.arange(capacity, dtype=np.int64)
        self._bounds = (
            _ClusterBounds(helper, dataset, attributes, clusters)
            if strategy in ("r", "rt")
            else None
        )
        #: (slot, word) transaction item bitsets
        self._transaction_bits = np.empty((capacity, 0), np.uint64)
        if strategy in ("t", "rt"):
            sizes, records = _slot_layout(clusters)
            membership = np.empty(len(dataset), dtype=np.int64)
            membership[records] = np.repeat(self.order, sizes)
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
        return self._bounds.scores(self.order[worst], self.order)

    def transaction_scores(self, worst: int) -> np.ndarray:
        """Jaccard distance between ``worst``'s item set and each cluster's."""
        bits = self._transaction_bits[self.order]
        own = self._transaction_bits[self.order[worst]]
        intersection = popcount_rows(bits & own)
        union = popcount_rows(bits | own)
        cost = np.zeros(len(self.order))
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
        slot, other = self.order[worst], self.order[partner]
        if self._bounds is not None:
            self._bounds.fold(slot, other)
        self._transaction_bits[slot] |= self._transaction_bits[other]
        self.order = np.append(np.delete(self.order, [worst, partner]), slot)


class _RootChildBits:
    """Per slot, what decides whether Apriori's search must end at the root.

    A slot keeps one record bitset (a Python ``int``) per child of the item
    hierarchy's root: bit ``r`` is set when the slot's ``r``-th record holds
    a leaf under that child.  Records are numbered in the order their
    clusters were merged, not by index; the decision reads only supports, and
    those do not depend on the numbering.  A slot also keeps its record count,
    its count of non-empty itemsets and whether any of its items is not a leaf
    (an inner node, the root, or an item outside the hierarchy).  All of it is
    built once from the transaction column's CSR; a merge ORs the partner's
    bitsets in, shifted past the slot's records.
    """

    def __init__(
        self,
        column: TransactionColumn,
        hierarchy: Hierarchy,
        clusters: Sequence[Sequence[int]],
        k: int,
        m: int,
    ):
        self._k, self._m = k, m
        self._root = frozenset([hierarchy.root.label])
        children = hierarchy.root.children
        branch_of = {
            leaf: branch
            for branch, child in enumerate(children)
            for leaf in hierarchy.leaves(child.label)
        }
        capacity, width = len(clusters), len(children)
        sizes, records = _slot_layout(clusters)
        slot_of = np.empty(column.n_records, dtype=np.int64)
        rank_of = np.empty(column.n_records, dtype=np.int64)
        slot_of[records] = np.repeat(np.arange(capacity), sizes)
        rank_of[records] = np.arange(len(records)) - np.repeat(np.cumsum(sizes) - sizes, sizes)
        occurrences = column.record_ids()
        branches = np.array(
            [branch_of.get(item, -1) for item in column.vocabulary], dtype=np.int64
        )[column.tokens]
        leaf = branches >= 0
        inner = np.zeros(capacity, dtype=bool)
        inner[slot_of[occurrences[~leaf]]] = True
        bits = posting_matrix(
            slot_of[occurrences[leaf]] * width + branches[leaf],
            rank_of[occurrences[leaf]],
            capacity * width,
            int(sizes.max(initial=0)),
        ).astype("<u8", copy=False)
        rows = [int.from_bytes(row.tobytes(), "little") for row in bits]
        nonempty = column.row_lengths() > 0
        #: per slot: the root children's record bitsets, record count,
        #: non-empty itemsets and whether an item is not a leaf
        self._rows = [rows[slot * width : (slot + 1) * width] for slot in range(capacity)]
        self._sizes = sizes.tolist()
        self._filled = np.bincount(slot_of[nonempty], minlength=capacity).tolist()
        self._inner = inner.tolist()
        self._nonempty = nonempty.tolist()

    def publication(self, slot: int, cluster: Sequence[int]) -> list[frozenset] | None:
        """What Apriori publishes for the slot's ``cluster`` when its search must end at the root.

        Returns ``None`` when that is not decided in advance; the caller then
        runs the search.  The slot is decided when some combination of
        1..``m`` root children has support in (0, ``k``).

        A hit decides the search, provided every item is a leaf of the
        hierarchy.  Every cut that leaves the items below the root refines
        the root-children cut.  Take one record supporting the rare
        combination, and one of its items under each of the combination's
        root children.  Their cut nodes form a combination of the same size,
        with support at least 1 (that record) and at most the rare one's.
        So every such cut violates k^m-anonymity.  With leaf items every
        promotion moves an item, so no node gets stuck, and the greedy search
        runs until every item maps to the root.  An item that is an inner
        node can leave a cut stuck below the root, so it falls back to the
        search, as does an item outside the hierarchy (the search raises the
        typed error).

        The decided output is ``{root}`` for each non-empty itemset and the
        empty set for each empty one.  When fewer than ``k`` itemsets are
        non-empty the root itself is rare, and every itemset is suppressed,
        as :meth:`~repro.algorithms.transaction.apriori.AprioriAnonymizer.publish`
        does for violations left unresolvable.  Either way the cluster's UL
        is exactly 1.0: a suppressed occurrence is charged 1, and a
        generalized one ``min(1, cost(root))``, which is 1 over a universe of
        two or more items.  A one-item universe is decided only through
        suppression: its one non-empty root child is rare only when fewer
        than ``k`` itemsets are non-empty.
        """
        if self._inner[slot]:
            return None
        rows = self._rows[slot]
        if not any(
            next(rare_combinations(rows, size, self._k), None) for size in range(1, self._m + 1)
        ):
            return None
        if self._filled[slot] < self._k:
            return [frozenset()] * len(cluster)
        nonempty, root, empty = self._nonempty, self._root, frozenset()
        return [root if nonempty[index] else empty for index in cluster]

    def merge(self, slot: int, other: int) -> None:
        """Fold ``other``'s records into ``slot``, numbered after the slot's own."""
        shift = self._sizes[slot]
        self._rows[slot] = [
            mine | theirs << shift for mine, theirs in zip(self._rows[slot], self._rows[other])
        ]
        self._sizes[slot] += self._sizes[other]
        self._filled[slot] += self._filled[other]
        self._inner[slot] = self._inner[slot] or self._inner[other]


class _ClusterPublisher:
    """Anonymizes one slot's cluster; returns its itemsets and their UL.

    Apriori over bounding's own item hierarchy runs on the cluster's itemsets
    directly, unless the slot's :class:`_RootChildBits` decide the cluster
    first.  Any other transaction algorithm runs on the cluster's ``subset``
    of the dataset.  Only a cluster that reaches a search reads its rows.
    """

    def __init__(
        self,
        algorithm: Anonymizer,
        hierarchy: Hierarchy | None,
        dataset: Dataset,
        attribute: str,
        clusters: Sequence[Sequence[int]],
    ):
        self.algorithm, self.hierarchy = algorithm, hierarchy
        self.dataset, self.attribute = dataset, attribute
        self.forced: _RootChildBits | None = None
        if (
            isinstance(algorithm, AprioriAnonymizer)
            and hierarchy is not None
            and algorithm.hierarchy is hierarchy
        ):
            self.forced = _RootChildBits(
                dataset.columnar(attribute), hierarchy, clusters, algorithm.k, algorithm.m
            )

    def publish(self, slot: int, cluster: Sequence[int]) -> tuple[list[frozenset], float]:
        if self.forced is not None:
            decided = self.forced.publication(slot, cluster)
            if decided is not None:
                return decided, 1.0
        original = [self.dataset[index][self.attribute] for index in cluster]
        if self.forced is not None:
            published, _ = self.algorithm.publish(original, self.hierarchy)
        else:
            result = self.algorithm.anonymize(self.dataset.subset(cluster))
            published = result.dataset.column(self.attribute)
        return published, itemset_utility_loss(original, published, self.hierarchy)

    def merge(self, slot: int, other: int) -> None:
        """Fold ``other``'s cluster into ``slot`` (before ``slot`` is published again)."""
        if self.forced is not None:
            self.forced.merge(slot, other)


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
        self, dataset: Dataset, attribute: str, clusters: Sequence[Sequence[int]]
    ) -> _ClusterPublisher:
        """The publisher of every slot, starting from the initial ``clusters``."""
        algorithm = self.transaction_algorithm or AprioriAnonymizer(
            self.k, self.m, hierarchy=self.item_hierarchy, attribute=self.transaction_attribute
        )
        return _ClusterPublisher(algorithm, self.item_hierarchy, dataset, attribute, clusters)

    # -- main -----------------------------------------------------------------------
    def anonymize(self, dataset: Dataset) -> AnonymizationResult:
        attributes = self.relational_attributes or relational_quasi_identifiers(dataset)
        if not attributes:
            raise AlgorithmError(f"{self.name}: the dataset has no relational quasi-identifiers")
        attribute = self.transaction_attribute or dataset.single_transaction_attribute()
        validate_k(self.k, len(dataset), self.name)

        timer = PhaseTimer()
        with timer.phase("relational clustering"):
            clusters, helper = self._initial_clusters(dataset, attributes)
        initial_clusters = len(clusters)

        with timer.phase("transaction anonymization"):
            publisher = self._cluster_publisher(dataset, attribute, clusters)
            outputs = [publisher.publish(slot, cluster) for slot, cluster in enumerate(clusters)]
            losses = np.array([loss for _, loss in outputs], dtype=np.float64)

        # Slot-indexed from here on: clusters, outputs and losses stay in their
        # slots, and ``order`` lists the slots in logical order.
        merges = 0
        merge_budget = self.max_merges if self.max_merges is not None else len(clusters)
        order = np.arange(len(clusters))
        state: _MergeState | None = None
        with timer.phase("cluster merging"):
            while len(order) > 1 and merges < merge_budget:
                worst = int(np.argmax(losses[order]))
                if losses[order[worst]] <= self.delta:
                    break
                if state is None:
                    state = _MergeState(
                        self.merge_strategy, helper, dataset, attributes, attribute, clusters
                    )
                partner = state.best_partner(worst)
                slot, other = order[worst], order[partner]
                state.merge(worst, partner)
                order = state.order
                clusters[slot] = sorted(clusters[slot] + clusters[other])
                publisher.merge(slot, other)
                outputs[slot] = publisher.publish(slot, clusters[slot])
                losses[slot] = outputs[slot][1]
                merges += 1
            clusters = [clusters[slot] for slot in order]
            outputs = [outputs[slot] for slot in order]
            # Free the slots' summaries before the output is built: they would
            # otherwise raise the run's peak memory.
            del publisher, state

        with timer.phase("apply"):
            # Both parts are published as columns: the clusters' labels by
            # cluster id and the slots' itemsets as one CSR column.
            published = dataset.column(attribute)
            for cluster, (itemsets, _loss) in zip(clusters, outputs):
                for index, itemset in zip(cluster, itemsets):
                    published[index] = itemset
            anonymized = helper.generalize_clusters(
                dataset, clusters, attributes, name_suffix=self.name
            ).with_columns({attribute: TransactionColumn.from_itemsets(published, attribute)})

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
