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

from typing import Mapping, Sequence

import numpy as np

from repro.algorithms.base import (
    AnonymizationResult,
    Anonymizer,
    PhaseTimer,
    relational_quasi_identifiers,
    validate_k,
)
from repro.datasets.dataset import Dataset
from repro.exceptions import AlgorithmError
from repro.hierarchy.builders import format_interval
from repro.hierarchy.hierarchy import Hierarchy
from repro.metrics.relational import global_certainty_penalty
from repro.policies.utility import generalized_label


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
            domain = [v for v in dataset.column(name) if v is not None]
            if (
                domain
                and attribute.is_numeric
                and all(isinstance(value, (int, float)) for value in domain)
            ):
                self._numeric.add(name)
                low, high = float(min(domain)), float(max(domain))
                self._domain_span[name] = max(high - low, 0.0)
            self._domain_size[name] = len(set(domain)) or 1

    def _bounds(
        self,
        dataset: Dataset,
        attributes: Sequence[str],
        indices: Sequence[int],
        start: list | None = None,
    ) -> list:
        """Per-attribute bounds of the records, widening ``start``.

        ``(low, high)`` of a numeric attribute's present values (``None`` while
        there are none), the frozenset of value strings of any other attribute.
        """
        bounds = list(start) if start is not None else [
            None if name in self._numeric else frozenset() for name in attributes
        ]
        for index in indices:
            record = dataset[index]
            for position, name in enumerate(attributes):
                value = record[name]
                if value is None:
                    continue
                bound = bounds[position]
                if name in self._numeric:
                    number = float(value)
                    bounds[position] = (
                        (number, number)
                        if bound is None
                        else (min(bound[0], number), max(bound[1], number))
                    )
                else:
                    bounds[position] = bound | {str(value)}
        return bounds

    def _bounds_cost(self, attributes: Sequence[str], bounds: list) -> float:
        """NCP of the minimum bounding generalization summarised by ``bounds``."""
        cost = 0.0
        for name, bound in zip(attributes, bounds):
            if name in self._numeric:
                span = self._domain_span[name]
                if span <= 0 or bound is None:
                    continue
                cost += (bound[1] - bound[0]) / span
            else:
                size = self._domain_size[name]
                if size <= 1:
                    continue
                hierarchy = self.hierarchies.get(name)
                if hierarchy is not None and len(bound) > 1:
                    ancestor = hierarchy.lowest_common_ancestor(bound)
                    width = hierarchy.leaf_count(ancestor)
                else:
                    width = len(bound)
                cost += (width - 1) / max(size - 1, 1)
        return cost / max(len(attributes), 1)

    def _cluster_cost(
        self, dataset: Dataset, attributes: Sequence[str], indices: Sequence[int]
    ) -> float:
        """NCP of the minimum bounding generalization of the given records."""
        return self._bounds_cost(attributes, self._bounds(dataset, attributes, indices))

    def _generalized_values(
        self, dataset: Dataset, attributes: Sequence[str], indices: Sequence[int]
    ) -> dict[str, str | None]:
        """The published value per attribute for one cluster.

        An attribute that every member lacks stays missing (``None``).
        """
        published: dict[str, str | None] = {}
        for name in attributes:
            values = [dataset[index][name] for index in indices]
            present = [value for value in values if value is not None]
            if not present:
                published[name] = None
            elif name in self._numeric:
                numeric_values = [float(v) for v in present]
                low, high = min(numeric_values), max(numeric_values)
                if low == high:
                    published[name] = (
                        str(int(low)) if float(low).is_integer() else str(low)
                    )
                else:
                    published[name] = format_interval(low, high)
            else:
                distinct = {str(v) for v in present}
                if len(distinct) == 1:
                    published[name] = next(iter(distinct))
                else:
                    hierarchy = self.hierarchies.get(name)
                    if hierarchy is not None:
                        published[name] = hierarchy.lowest_common_ancestor(distinct)
                    else:
                        published[name] = generalized_label(distinct)
        return published

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

        Bounds are summarised once per cluster and widened as leftovers join.
        """
        if not leftovers:
            return
        if not clusters:
            raise AlgorithmError(
                "ClusterAnonymizer: cannot place leftover records; "
                "the dataset is smaller than k"
            )
        bounds = [self._bounds(dataset, attributes, cluster) for cluster in clusters]
        for leftover in leftovers:
            widened = [
                self._bounds(dataset, attributes, [leftover], bound) for bound in bounds
            ]
            costs = [self._bounds_cost(attributes, bound) for bound in widened]
            best = min(range(len(costs)), key=costs.__getitem__)
            clusters[best].append(leftover)
            bounds[best] = widened[best]

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
        """Publish every cluster's minimum bounding generalization."""
        attributes = list(attributes or self.attributes or relational_quasi_identifiers(dataset))
        if not hasattr(self, "_domain_size") or not self._domain_size:
            self._prepare(dataset, attributes)
        anonymized = dataset.copy(name=f"{dataset.name}[{name_suffix}]")
        columns = {attribute: anonymized.column(attribute) for attribute in attributes}
        for cluster in clusters:
            published = self._generalized_values(dataset, attributes, cluster)
            for attribute, value in published.items():
                column = columns[attribute]
                for index in cluster:
                    column[index] = value
        for attribute, column in columns.items():
            anonymized.set_column(attribute, column)
        return anonymized

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
