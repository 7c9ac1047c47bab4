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

from itertools import chain
from typing import Iterable, Mapping, Sequence

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
from repro.columnar.bitset import popcount_segments, rare_combinations
from repro.columnar.column import TransactionColumn
from repro.datasets.dataset import Dataset
from repro.exceptions import AlgorithmError, ConfigurationError
from repro.hierarchy.hierarchy import Hierarchy
from repro.metrics.relational import global_certainty_penalty
from repro.metrics.transaction import itemset_utility_loss, utility_loss


def _slot_layout(clusters: Sequence[Sequence[int]]) -> tuple[np.ndarray, np.ndarray]:
    """Each cluster's record count, and its records concatenated in slot order."""
    sizes = np.fromiter(map(len, clusters), dtype=np.int64, count=len(clusters))
    records = np.fromiter(chain.from_iterable(clusters), dtype=np.int64, count=int(sizes.sum()))
    return sizes, records


class _LcaTable:
    """Pairwise lowest common ancestors of one hierarchy's nodes, by integer id.

    Ids index the hierarchy's :meth:`~repro.hierarchy.hierarchy.Hierarchy.ancestor_table`;
    ``-1`` is "no value", whose LCA with a node is the node.  A value that
    is not in the hierarchy gets an id past the table.  Row ``a`` holds, at
    column ``1 + b``, the id of LCA(``a``, ``b``) and the leaf count of that
    LCA (the width a merge would publish); column 0 is no value.  A row is
    built on first use from one ``==`` of ``a``'s ancestor row against the
    whole ancestor table and an ``argmin`` for the first mismatch, so a wide
    hierarchy pays only for the nodes that are some cluster's LCA.

    A leaf count of ``-1`` marks a pair whose LCA would have to climb the
    hierarchy from a value outside it; only there is the typed
    :class:`~repro.exceptions.HierarchyError` raised.
    """

    def __init__(self, hierarchy: Hierarchy):
        self.hierarchy = hierarchy
        index, self._ancestors, self._leaf_counts = hierarchy.ancestor_table()
        self._ids = dict(index)
        self._n_nodes = len(index)
        self._rows: dict[int, tuple[np.ndarray, np.ndarray]] = {}

    @property
    def has_unknown(self) -> bool:
        """Whether some value outside the hierarchy has an id."""
        return len(self._ids) > self._n_nodes

    def id_of(self, label: str) -> int:
        if label not in self._ids:
            self._ids[label] = len(self._ids)
            self._rows.clear()  # a row covers every id
        return self._ids[label]

    def label_of(self, node: int) -> str:
        return list(self._ids)[node]

    def cluster_ids(
        self, slots: np.ndarray, codes: np.ndarray, labels: Sequence[str], capacity: int
    ) -> np.ndarray:
        """Each slot's id: its one value's, or its values' LCA (``-1``: no value).

        ``(slots, codes)`` are the distinct (slot, label code) pairs, sorted.
        The LCA of several values is the deepest ancestor-table column on
        which all their rows agree.
        """
        ids = np.full(capacity, -1, dtype=np.int64)
        nodes = np.array([self.id_of(label) for label in labels], dtype=np.int64)[codes]
        if not nodes.size:
            return ids
        starts = np.flatnonzero(np.diff(slots, prepend=-1))
        counts = np.diff(np.append(starts, len(slots)))
        several = counts > 1
        climbing = np.flatnonzero(np.repeat(several, counts) & (nodes >= self._n_nodes))
        if climbing.size:
            self.hierarchy.node(labels[codes[climbing[0]]])  # raises the typed error
        ancestors = self._ancestors[np.where(nodes < self._n_nodes, nodes, 0)]
        agree = np.minimum.reduceat(ancestors, starts) == np.maximum.reduceat(ancestors, starts)
        lca = ancestors[starts, np.argmin(agree, axis=1) - 1]
        ids[slots[starts]] = np.where(several, lca, nodes[starts])
        return ids

    def row(self, node: int) -> tuple[np.ndarray, np.ndarray]:
        """LCA ids and leaf counts of ``node`` with no value, then with every id."""
        row = self._rows.get(node)
        if row is None:
            n_nodes, n_ids = self._n_nodes, len(self._ids)
            if node < 0:
                lca = np.arange(-1, n_ids)
            else:
                lca = np.full(n_ids + 1, -2, dtype=np.int64)  # -2: climbs from outside
                if node < n_nodes:
                    ancestors = self._ancestors
                    first_mismatch = np.argmin(ancestors == ancestors[node], axis=1)
                    lca[1 : n_nodes + 1] = ancestors[node, first_mismatch - 1]
                lca[0] = lca[1 + node] = node
            known = (lca >= 0) & (lca < n_nodes)
            leaves = np.full(len(lca), -1, dtype=np.int64)
            leaves[known] = self._leaf_counts[lca[known]]
            row = self._rows[node] = (lca, leaves)
        return row

    def merged(self, rep: int, other: int) -> int:
        """The LCA id of the nodes ``rep`` and ``other``."""
        if rep < 0:
            return other
        if other < 0 or other == rep:
            return rep
        self.require_known((other, rep))
        return int(self.row(rep)[0][1 + other])

    def require_known(self, ids: Iterable[int]) -> None:
        """Raise the typed error for the first of ``ids`` outside the hierarchy."""
        for node in ids:
            if node >= self._n_nodes:
                self.hierarchy.node(self.label_of(node))  # raises the typed error


class _MergeState:
    """Incrementally maintained per-cluster summaries for the merge phase.

    The scalar merge loop re-walks every member record of both clusters for
    every candidate partner at every merge step.  This state keeps, per
    cluster, exactly what the merge score needs — numeric lo/hi vectors,
    categorical distinct-value bitsets (plus the cluster's LCA node id for
    hierarchy-scored attributes), and transaction item bitsets — so scoring
    the worst cluster against *all* partners is one vectorized pass over all
    attributes at once: min/max widening of the (attribute × slot) numeric
    bounds, OR + per-attribute popcount of the (word × slot) categorical
    bitsets, and one row per hierarchy of its :class:`_LcaTable` gathered at
    the partners' LCA ids.  The per-attribute costs are then summed left to
    right in attribute order.  Scores are numerically identical to the
    scalar re-scan of both clusters' members: the same operations run in the
    same attribute order, widths are integer leaf counts, and the LCA of a
    merged value set equals the LCA of the two clusters' LCA nodes.

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
        self._n_attributes = max(len(attributes), 1)
        capacity = len(clusters)
        #: logical position -> slot
        self.order = np.arange(capacity, dtype=np.int64)
        sizes, records = _slot_layout(clusters)
        starts = np.cumsum(sizes) - sizes
        #: record index -> slot, used to scatter per-record occurrences into
        #: per-cluster bitsets.
        membership = np.empty(len(dataset), dtype=np.int64)
        membership[records] = np.repeat(self.order, sizes)

        # Attribute-major layouts: one row per attribute (or bitset word) and
        # one column per slot, so each scoring step runs along the slots.
        #: per contributing attribute, in order: whether it is numeric
        numeric: list[bool] = []
        lows: list[np.ndarray] = []
        highs: list[np.ndarray] = []
        spans: list[float] = []
        blocks: list[np.ndarray] = []
        denominators: list[int] = []
        #: per hierarchy-scored attribute: its categorical position, its
        #: table and the slots' LCA ids
        scored: list[tuple[int, _LcaTable, np.ndarray]] = []
        if strategy in ("r", "rt"):
            for name in attributes:
                if name in helper._numeric:
                    span = helper._domain_span[name]
                    if span <= 0:
                        continue
                    values = dataset.columnar(name).numbers[records]
                    # fmin/fmax skip NaN; a cluster with no value keeps the
                    # empty bounds (inf, -inf).
                    lo = np.fmin.reduceat(values, starts)
                    hi = np.fmax.reduceat(values, starts)
                    lo[np.isnan(lo)], hi[np.isnan(hi)] = np.inf, -np.inf
                    numeric.append(True)
                    lows.append(lo)
                    highs.append(hi)
                    spans.append(span)
                else:
                    size = helper._domain_size[name]
                    if size <= 1:
                        continue
                    cells, labels = dataset.columnar(name).string_codes()
                    slots, codes = membership[cells < len(labels)], cells[cells < len(labels)]
                    hierarchy = helper.hierarchies.get(name)
                    if hierarchy is not None:
                        table = _LcaTable(hierarchy)
                        pairs = np.unique(slots * len(labels) + codes)
                        ids = table.cluster_ids(*np.divmod(pairs, len(labels)), labels, capacity)
                        scored.append((len(blocks), table, ids))
                    numeric.append(False)
                    blocks.append(posting_matrix(slots, codes, capacity, len(labels)).T)
                    denominators.append(max(size - 1, 1))
        #: which cost terms, in attribute order, are numeric / categorical
        self._numeric_terms = np.array(numeric, dtype=bool)
        self._categorical_terms = ~self._numeric_terms
        #: (numeric attribute, slot) bounds, and the attributes' domain spans
        self._lo = np.array(lows).reshape(len(lows), capacity)
        self._hi = np.array(highs).reshape(len(highs), capacity)
        self._spans = np.array(spans, dtype=np.float64)[:, None]
        #: (word, slot) categorical bitsets, one run of words per attribute
        self._cat_bits = np.vstack(blocks) if blocks else np.empty((0, capacity), np.uint64)
        self._segments = np.cumsum([0] + [block.shape[0] for block in blocks])[:-1]
        self._denominators = np.array(denominators, dtype=np.float64)[:, None]
        #: the hierarchy-scored attributes' categorical positions and tables,
        #: (attribute, slot) LCA ids, and each attribute's offset into the
        #: concatenation of one row per table (past its no-value column)
        self._scored = np.array([position for position, _, _ in scored], dtype=np.int64)
        self._tables = [table for _, table, _ in scored]
        self._lca_ids = np.array([ids for _, _, ids in scored]).reshape(len(scored), capacity)
        widths = [len(table.row(-1)[0]) for table in self._tables]
        self._offsets = (np.cumsum([0] + widths[:-1]) + 1)[:, None]
        self._unknown = any(table.has_unknown for table in self._tables)
        #: (slot, word) transaction item bitsets
        self._transaction_bits = np.empty((capacity, 0), np.uint64)
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
        order = self.order
        slot = order[worst]
        terms = np.empty((len(self._numeric_terms), len(order)))
        lo, hi = self._lo, self._hi
        width = np.maximum(np.take(hi, order, axis=1), hi[:, slot, None]) - np.minimum(
            np.take(lo, order, axis=1), lo[:, slot, None]
        )
        terms[self._numeric_terms] = np.maximum(width, 0.0) / self._spans
        if self._segments.size:
            bits = self._cat_bits
            merged = np.take(bits, order, axis=1) | bits[:, slot, None]
            counts = popcount_segments(merged, self._segments)
            if self._tables:
                ids, reps = np.take(self._lca_ids, order, axis=1), self._lca_ids[:, slot]
                rows = [table.row(rep)[1] for table, rep in zip(self._tables, reps)]
                leaves = np.concatenate(rows)[ids + self._offsets]
                distinct = counts[self._scored]
                wide = distinct > 1
                counts[self._scored] = np.where(wide, leaves, distinct)
                if self._unknown:
                    # A leaf count of -1: the LCA climbs from a value outside
                    # the hierarchy.
                    for table, others, partners, widths, rep in zip(
                        self._tables, ids, wide, leaves, reps
                    ):
                        if (widths[partners] < 0).any():
                            table.require_known(np.append(others[partners], rep))
            terms[self._categorical_terms] = (counts - 1.0) / self._denominators
        # Summed left to right in attribute order, from 0.0.
        cost = np.zeros(len(order))
        for term in terms:
            cost += term
        return cost / self._n_attributes

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
        lo, hi, ids = self._lo, self._hi, self._lca_ids
        lo[:, slot] = np.minimum(lo[:, slot], lo[:, other])
        hi[:, slot] = np.maximum(hi[:, slot], hi[:, other])
        self._cat_bits[:, slot] |= self._cat_bits[:, other]
        for row, table in enumerate(self._tables):
            ids[row, slot] = table.merged(int(ids[row, slot]), int(ids[row, other]))
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
