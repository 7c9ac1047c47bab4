"""Cluster-based relational anonymization (Poulis et al., ECML/PKDD 2013).

The relational half of the RT-anonymization framework: records are grouped
into clusters of at least ``k`` members by a greedy nearest-neighbour
procedure, and every cluster is generalized to its minimum bounding
generalization — the value range of its members for numeric attributes, the
lowest common ancestor (or the explicit value set, when no hierarchy is
supplied) for categorical ones.  Unlike the full-domain algorithms the
recoding is *local*: different clusters may generalize the same value
differently, which preserves substantially more utility.  A cluster whose
members all lack an attribute publishes that attribute missing.

Each greedy step adds the unassigned record that widens the cluster's
bounding generalization least (the first on ties), rescoring only the
attributes whose bound the previous member widened.

The produced clusters are also the starting point of the RT bounding methods
(Rmerger / Tmerger / RTmerger), which is why the cluster assignment is
reported in the result statistics.
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
from repro.columnar.bitset import popcount_segments, posting_matrix
from repro.columnar.relational import CategoricalColumn
from repro.datasets.dataset import Dataset
from repro.exceptions import AlgorithmError
from repro.hierarchy.builders import format_interval
from repro.hierarchy.hierarchy import Hierarchy
from repro.metrics.relational import global_certainty_penalty
from repro.policies.utility import generalized_label


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
        self._labels = list(index)
        self._n_nodes = len(index)
        self._rows: dict[int, tuple[np.ndarray, np.ndarray]] = {}

    @property
    def has_unknown(self) -> bool:
        """Whether some value outside the hierarchy has an id."""
        return len(self._ids) > self._n_nodes

    def id_of(self, label: str) -> int:
        if label not in self._ids:
            self._ids[label] = len(self._ids)
            self._labels.append(label)
            self._rows.clear()  # a row covers every id
        return self._ids[label]

    def label_of(self, node: int) -> str:
        return self._labels[node]

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


class _ClusterKernel:
    """Per-attribute cost columns of the cluster being grown.

    :meth:`reset` gathers the ascending candidates' values once per
    *contributing* attribute.  A column scores numeric span widening via
    ``np.fmin``/``np.fmax`` against the ``NaN``-missing value vectors, or
    categorical membership against the cluster's value-code mask (a count of
    distinct values, a lower bound of the LCA's leaf count).  :meth:`take`
    stales only the columns whose bound the member widened; :meth:`costs`
    rebuilds those and re-sums all columns in attribute order, so every cost
    is the float a whole-frontier pass gives.  Taken candidates cost ``+inf``,
    so ``np.argmin`` picks the first cheapest one left.
    """

    def __init__(self, owner: "ClusterAnonymizer", dataset: Dataset, attributes):
        self._n_attributes = max(len(list(attributes)), 1)
        #: (numbers, span, None) / (cells, denominator, missing code) per
        #: contributing attribute, in attribute order.
        self._specs: list[tuple] = []
        for name in attributes:
            if name in owner._numeric:
                span = owner._domain_span[name]
                if span <= 0:
                    continue
                self._specs.append((dataset.columnar(name).numbers, span, None))
            else:
                size = owner._domain_size[name]
                if size <= 1:
                    continue
                cells, labels = dataset.columnar(name).string_codes()
                self._specs.append((cells, max(size - 1, 1), len(labels)))

    def reset(self, seed: int, candidates: np.ndarray) -> None:
        """Seed a cluster at ``seed``; ``candidates`` are the records it may take."""
        #: Per attribute: [low, high] of the present values (``inf``/``-inf``
        #: while there are none), or [value-code mask, distinct count].
        self._bounds: list[list] = []
        self._values: list[np.ndarray] = []
        self._columns: list[np.ndarray | None] = []
        self._size = candidates.size
        for data, _parameter, missing in self._specs:
            if missing is None:
                value = data[seed]
                self._bounds.append(
                    [np.inf, -np.inf] if np.isnan(value) else [value, value]
                )
            else:
                mask = np.zeros(missing + 1, dtype=bool)
                mask[missing] = True  # missing cells never add a new value
                code = data[seed]
                mask[code] = True
                self._bounds.append([mask, int(code != missing)])
            self._values.append(data[candidates])
            self._columns.append(None)
        self.taken: list[int] = []
        self._cost: np.ndarray | None = None

    def take(self, position: int) -> None:
        """Add ``candidates[position]``; stale only the columns it widens."""
        self.taken.append(position)
        if self._cost is not None:
            self._cost[position] = np.inf
        for spec, (_data, _parameter, missing) in enumerate(self._specs):
            value = self._values[spec][position]
            bound = self._bounds[spec]
            if missing is None:
                if np.isnan(value) or bound[0] <= value <= bound[1]:
                    continue
                bound[0] = min(bound[0], value)
                bound[1] = max(bound[1], value)
            else:
                if bound[0][value]:
                    continue
                bound[0][value] = True
                bound[1] += 1
            self._columns[spec] = None
            self._cost = None

    def costs(self) -> np.ndarray:
        """Bounding-generalization NCP of the cluster widened by each candidate."""
        if self._cost is not None:
            return self._cost
        cost = np.zeros(self._size)
        for spec, (_data, parameter, missing) in enumerate(self._specs):
            column = self._columns[spec]
            if column is None:
                values = self._values[spec]
                if missing is None:
                    low, high = self._bounds[spec]
                    width = np.fmax(high, values) - np.fmin(low, values)
                    column = np.maximum(width, 0.0) / parameter
                else:
                    mask, count = self._bounds[spec]
                    column = (count + ~mask[values] - 1.0) / parameter
                self._columns[spec] = column
            cost += column
        cost /= self._n_attributes
        cost[self.taken] = np.inf
        self._cost = cost
        return cost


class ClusterAnonymizer(Anonymizer):
    """Greedy k-member clustering with minimum-bounding generalization."""

    name = "cluster"
    data_kind = "relational"

    def __init__(
        self,
        k: int,
        hierarchies: Mapping[str, Hierarchy] | None = None,
        attributes: Sequence[str] | None = None,
    ):
        self.k = int(k)
        self.hierarchies = dict(hierarchies or {})
        self.attributes = list(attributes) if attributes is not None else None

    def parameters(self) -> dict:
        return {"k": self.k, "attributes": self.attributes}

    # -- cluster cost model ------------------------------------------------------
    def _prepare(self, dataset: Dataset, attributes: Sequence[str]) -> None:
        self._numeric: set[str] = set()
        self._domain_span: dict[str, float] = {}
        self._domain_size: dict[str, int] = {}
        for name in attributes:
            attribute = dataset.schema[name]
            domain = [v for v in dataset.columnar(name).values if v is not None]
            if (
                domain
                and attribute.is_numeric
                and all(isinstance(value, (int, float)) for value in domain)
            ):
                self._numeric.add(name)
                low, high = float(min(domain)), float(max(domain))
                self._domain_span[name] = max(high - low, 0.0)
            self._domain_size[name] = len(domain) or 1

    def _cluster_labels(
        self, dataset: Dataset, name: str, sizes: np.ndarray, records: np.ndarray
    ) -> list[str | None]:
        """Each cluster's published value of ``name``, from the input's columns.

        A numeric attribute publishes its members' value or ``[low-high]``
        range (``NumericColumn.numbers`` reduced per cluster), any other
        attribute its members' one string, or their lowest common ancestor
        (``generalized_label`` without a hierarchy).  A cluster whose
        members all lack the attribute publishes it missing (``None``).
        """
        column = dataset.columnar(name)
        if name in self._numeric:
            values = column.numbers[records]
            starts = np.cumsum(sizes) - sizes
            labels: list[str | None] = []
            for low, high in zip(
                np.fmin.reduceat(values, starts).tolist(),
                np.fmax.reduceat(values, starts).tolist(),
            ):
                if low != low:  # NaN: no member has a value
                    labels.append(None)
                elif low == high:
                    labels.append(str(int(low)) if low.is_integer() else str(low))
                else:
                    labels.append(format_interval(low, high))
            return labels
        codes, strings = column.string_codes()
        labels = [None] * len(sizes)
        members = codes[records]
        present = members < len(strings)
        if not present.any():
            return labels
        slots = np.repeat(np.arange(len(sizes)), sizes)
        pairs = np.unique(slots[present] * len(strings) + members[present])
        owners, values = np.divmod(pairs, len(strings))
        hierarchy = self.hierarchies.get(name)
        if hierarchy is not None:
            table = _LcaTable(hierarchy)
            ids = table.cluster_ids(owners, values, strings, len(sizes))
            return [None if node < 0 else table.label_of(node) for node in ids.tolist()]
        starts = np.flatnonzero(np.diff(owners, prepend=-1)).tolist()
        for start, end in zip(starts, starts[1:] + [len(owners)]):
            distinct = [strings[code] for code in values[start:end].tolist()]
            labels[int(owners[start])] = (
                distinct[0] if len(distinct) == 1 else generalized_label(distinct)
            )
        return labels

    # -- clustering -----------------------------------------------------------------
    def build_clusters(
        self, dataset: Dataset, attributes: Sequence[str] | None = None
    ) -> list[list[int]]:
        """Greedy k-member clustering; exposed for the RT bounding methods."""
        attributes = list(attributes or self.attributes or relational_quasi_identifiers(dataset))
        validate_k(self.k, len(dataset), "ClusterAnonymizer")
        self._prepare(dataset, attributes)
        clusters, leftovers = self._grow_clusters(dataset, attributes)
        self._attach_leftovers(dataset, attributes, clusters, leftovers)
        return clusters

    def _attach_leftovers(
        self,
        dataset: Dataset,
        attributes: Sequence[str],
        clusters: list[list[int]],
        leftovers: Sequence[int],
    ) -> None:
        """Append each leftover to the first cluster it widens least.

        Every cluster is scored against a leftover in one pass over the
        clusters' bounds (:class:`_ClusterBounds`), which widen as leftovers
        join.
        """
        if not leftovers:
            return
        if not clusters:
            raise AlgorithmError(
                "ClusterAnonymizer: cannot place leftover records; "
                "the dataset is smaller than k"
            )
        # Each leftover starts in a slot of its own, past the clusters'.
        bounds = _ClusterBounds(
            self, dataset, attributes, clusters + [[leftover] for leftover in leftovers]
        )
        targets = np.arange(len(clusters))
        for slot, leftover in enumerate(leftovers, start=len(clusters)):
            best = int(np.argmin(bounds.scores(slot, targets)))
            clusters[best].append(leftover)
            bounds.fold(best, slot)

    def _grow_clusters(
        self, dataset: Dataset, attributes: Sequence[str]
    ) -> tuple[list[list[int]], list[int]]:
        """Greedy growth; each added member rescores only the columns it widens."""
        kernel = _ClusterKernel(self, dataset, attributes)
        unassigned = np.arange(len(dataset), dtype=np.int64)
        clusters: list[list[int]] = []
        while unassigned.size >= self.k:
            seed = int(unassigned[0])
            candidates = unassigned[1:]
            kernel.reset(seed, candidates)
            for _ in range(self.k - 1):
                kernel.take(int(np.argmin(kernel.costs())))
            clusters.append([seed, *candidates[kernel.taken].tolist()])
            alive = np.ones(candidates.size, dtype=bool)
            alive[kernel.taken] = False
            unassigned = candidates[alive]
        return clusters, unassigned.tolist()

    def generalize_clusters(
        self,
        dataset: Dataset,
        clusters: Sequence[Sequence[int]],
        attributes: Sequence[str] | None = None,
        name_suffix: str = "cluster",
    ) -> Dataset:
        """Publish every cluster's minimum bounding generalization.

        Each attribute is one label per cluster gathered by cluster id
        (:meth:`~repro.columnar.relational.CategoricalColumn.from_images`);
        a record outside every cluster keeps its cell.  The output is built
        from columns, with no row copied.
        """
        attributes = list(attributes or self.attributes or relational_quasi_identifiers(dataset))
        if not hasattr(self, "_domain_size") or not self._domain_size:
            self._prepare(dataset, attributes)
        clusters = [cluster for cluster in clusters if len(cluster)]
        sizes, records = _slot_layout(clusters)
        ids = np.full(len(dataset), -1, dtype=np.int64)
        ids[records] = np.repeat(np.arange(len(clusters)), sizes)
        outside = np.flatnonzero(ids < 0)
        ids[outside] = len(clusters) + np.arange(len(outside))
        columns = {}
        for name in attributes:
            labels: list = self._cluster_labels(dataset, name, sizes, records)
            if outside.size:
                cells = dataset.column(name)
                labels += [cells[index] for index in outside.tolist()]
            columns[name] = CategoricalColumn.from_images(dataset.schema[name], labels, ids)
        return dataset.with_columns(columns, name=f"{dataset.name}[{name_suffix}]")

    def anonymize(self, dataset: Dataset) -> AnonymizationResult:
        attributes = self.attributes or relational_quasi_identifiers(dataset)
        if not attributes:
            raise AlgorithmError(
                "ClusterAnonymizer: the dataset has no relational quasi-identifiers"
            )
        timer = PhaseTimer()
        with timer.phase("clustering"):
            clusters = self.build_clusters(dataset, attributes)
        with timer.phase("generalization"):
            anonymized = self.generalize_clusters(dataset, clusters, attributes)
        gcp = global_certainty_penalty(
            dataset, anonymized, attributes=attributes, hierarchies=self.hierarchies
        )
        sizes = [len(cluster) for cluster in clusters]
        return AnonymizationResult(
            dataset=anonymized,
            algorithm=self.name,
            parameters=self.parameters(),
            runtime_seconds=timer.total,
            phase_seconds=timer.phases,
            statistics={
                "clusters": len(clusters),
                "min_cluster_size": min(sizes) if sizes else 0,
                "max_cluster_size": max(sizes) if sizes else 0,
                "gcp": gcp,
                "cluster_assignment": [list(cluster) for cluster in clusters],
            },
        )


class _ClusterBounds:
    """Per-cluster bounding generalizations, one cluster scored against many at once.

    One slot per cluster, in attribute-major layouts (one row per attribute
    or bitset word, one column per slot): numeric lo/hi bounds (``inf``/
    ``-inf`` while a cluster has no value), categorical distinct-value
    bitsets (one run of ``uint64`` words per attribute, counted with
    ``popcount_segments``) and, for hierarchy-scored attributes, each
    cluster's :class:`_LcaTable` id, whose row gives the leaf count of a
    merged LCA.  :meth:`scores` costs one cluster merged with each of many
    in one pass; the per-attribute costs are summed left to right in
    attribute order, so every score equals the scalar NCP of the merged
    members' bounds.  :meth:`fold` merges one slot into another in place.
    Leftover placement and the RT merge phase both run on it.
    """

    def __init__(
        self,
        owner: ClusterAnonymizer,
        dataset: Dataset,
        attributes: Sequence[str],
        clusters: Sequence[Sequence[int]],
    ):
        self._n_attributes = max(len(attributes), 1)
        capacity = len(clusters)
        sizes, records = _slot_layout(clusters)
        starts = np.cumsum(sizes) - sizes
        #: record index -> slot
        membership = np.empty(len(dataset), dtype=np.int64)
        membership[records] = np.repeat(np.arange(capacity), sizes)
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
        for name in attributes:
            if name in owner._numeric:
                span = owner._domain_span[name]
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
                size = owner._domain_size[name]
                if size <= 1:
                    continue
                cells, labels = dataset.columnar(name).string_codes()
                slots, codes = membership[cells < len(labels)], cells[cells < len(labels)]
                hierarchy = owner.hierarchies.get(name)
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

    def scores(self, slot: int, slots: np.ndarray) -> np.ndarray:
        """Bounding-generalization NCP of ``slot``'s cluster merged with each of ``slots``'."""
        terms = np.empty((len(self._numeric_terms), len(slots)))
        lo, hi = self._lo, self._hi
        width = np.maximum(np.take(hi, slots, axis=1), hi[:, slot, None]) - np.minimum(
            np.take(lo, slots, axis=1), lo[:, slot, None]
        )
        terms[self._numeric_terms] = np.maximum(width, 0.0) / self._spans
        if self._segments.size:
            bits = self._cat_bits
            merged = np.take(bits, slots, axis=1) | bits[:, slot, None]
            counts = popcount_segments(merged, self._segments)
            if self._tables:
                ids, reps = np.take(self._lca_ids, slots, axis=1), self._lca_ids[:, slot]
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
        cost = np.zeros(len(slots))
        for term in terms:
            cost += term
        return cost / self._n_attributes

    def fold(self, slot: int, other: int) -> None:
        """Widen ``slot``'s bounds with ``other``'s."""
        lo, hi, ids = self._lo, self._hi, self._lca_ids
        lo[:, slot] = np.minimum(lo[:, slot], lo[:, other])
        hi[:, slot] = np.maximum(hi[:, slot], hi[:, other])
        self._cat_bits[:, slot] |= self._cat_bits[:, other]
        for row, table in enumerate(self._tables):
            ids[row, slot] = table.merged(int(ids[row, slot]), int(ids[row, other]))
