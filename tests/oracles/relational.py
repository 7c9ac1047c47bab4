"""Scalar references of the relational algorithms' columnar paths.

Each reference restates, record by record, a path the relational algorithms
now run on code arrays; the equivalence tests pin the two to identical
outputs:

* :class:`ClusterBounds` and :func:`grow_clusters_scalar` — greedy k-member
  growth scoring one candidate record at a time;
* :class:`FrontierClusterKernel` and :func:`grow_clusters_frontier` — the
  same growth rescoring every attribute of the whole unassigned frontier per
  added member, the reference of ``ClusterAnonymizer._grow_clusters`` at
  sizes where the scalar growth is too slow;
* :func:`bounds_scalar` and :func:`bounds_cost_scalar` — a cluster's
  bounds read from its rows and their bounding-generalization NCP, the
  per-cluster reference of the clustering's leftover placement;
* :class:`ScalarClusterAnonymizer` — the clustering with that growth, each
  leftover scored by :func:`cluster_cost_scalar` over all members of every
  cluster, and per-cell ``set_value`` publishing of the labels
  :func:`generalized_values_scalar` reads off the members' rows;
* :class:`ScalarIncognito` — selection that builds every minimal
  candidate dataset and scores it with ``global_certainty_penalty``;
* :class:`ScalarTopDown` — ``_min_class_size`` grouping records into a tuple
  dictionary, and the copy-then-``map_column`` publish;
* :func:`apply_by_cells` — full-domain generalization by per-cell writes;
* :func:`min_class_size_group_by` and :func:`k_violations_group_by` — the
  k-anonymity checks on ``Dataset.group_by``;
* :func:`anonymous_nodes_by_definition` and
  :func:`minimal_nodes_by_definition` — every lattice node applied and
  checked, and Incognito's minimal k-anonymous nodes from those checks;
* :func:`average_cell_ncp` — one record's NCP from its cells, the
  reference of ``RelationalLossContext.dataset_ncp_values``.
"""

from __future__ import annotations

from typing import Sequence

import numpy as np

from repro.algorithms import ClusterAnonymizer, Incognito, TopDownSpecialization
from repro.algorithms.base import relational_quasi_identifiers
from repro.datasets import Dataset
from repro.hierarchy.builders import format_interval
from repro.hierarchy.lattice import GeneralizationLattice, LevelVector
from repro.metrics.privacy_checks import KViolation, equivalence_classes
from repro.metrics.relational import RelationalLossContext, global_certainty_penalty
from repro.policies.utility import generalized_label


class ClusterBounds:
    """Incrementally maintained bounding generalization of one growing cluster.

    Scoring a candidate record against the running bounds is O(#attributes).
    The categorical cost uses the number of distinct values in the cluster.
    """

    def __init__(self, owner: ClusterAnonymizer, dataset: Dataset, attributes, seed: int):
        self._owner = owner
        self._dataset = dataset
        self._attributes = list(attributes)
        #: name -> (low, high), or ``None`` while the cluster holds no numeric
        #: value for the attribute (a ``None`` seed must not anchor the bounds
        #: at 0 — missing values are skipped exactly as :meth:`add` does).
        self._numeric_bounds: dict[str, tuple[float, float] | None] = {}
        self._categorical_values: dict[str, set[str]] = {}
        for name in self._attributes:
            value = dataset[seed][name]
            if name in owner._numeric:
                self._numeric_bounds[name] = (
                    (float(value), float(value)) if value is not None else None
                )
            else:
                self._categorical_values[name] = (
                    {str(value)} if value is not None else set()
                )

    def cost_with(self, candidate: int) -> float:
        record = self._dataset[candidate]
        cost = 0.0
        for name in self._attributes:
            value = record[name]
            if name in self._owner._numeric:
                span = self._owner._domain_span[name]
                if span <= 0:
                    continue
                bounds = self._numeric_bounds[name]
                if value is not None:
                    number = float(value)
                    low, high = (
                        (number, number)
                        if bounds is None
                        else (min(bounds[0], number), max(bounds[1], number))
                    )
                elif bounds is None:
                    continue
                else:
                    low, high = bounds
                cost += (high - low) / span
            else:
                size = self._owner._domain_size[name]
                if size <= 1:
                    continue
                values = self._categorical_values[name]
                extra = 0 if value is None or str(value) in values else 1
                cost += (len(values) + extra - 1) / max(size - 1, 1)
        return cost / max(len(self._attributes), 1)

    def add(self, candidate: int) -> None:
        record = self._dataset[candidate]
        for name in self._attributes:
            value = record[name]
            if value is None:
                continue
            if name in self._owner._numeric:
                bounds = self._numeric_bounds[name]
                number = float(value)
                self._numeric_bounds[name] = (
                    (number, number)
                    if bounds is None
                    else (min(bounds[0], number), max(bounds[1], number))
                )
            else:
                self._categorical_values[name].add(str(value))


def grow_clusters_scalar(
    algorithm: ClusterAnonymizer, dataset: Dataset, attributes: Sequence[str]
) -> tuple[list[list[int]], list[int]]:
    """Greedy growth scoring every candidate through :class:`ClusterBounds`."""
    unassigned = list(range(len(dataset)))
    clusters: list[list[int]] = []
    while len(unassigned) >= algorithm.k:
        seed = unassigned.pop(0)
        cluster = [seed]
        bounds = ClusterBounds(algorithm, dataset, attributes, seed)
        while len(cluster) < algorithm.k:
            best_index = None
            best_cost = None
            for candidate in unassigned:
                cost = bounds.cost_with(candidate)
                if best_cost is None or cost < best_cost:
                    best_cost = cost
                    best_index = candidate
            cluster.append(best_index)
            bounds.add(best_index)
            unassigned.remove(best_index)
        clusters.append(cluster)
    return clusters, unassigned


class FrontierClusterKernel:
    """Running bounds of the growing cluster, scoring a whole frontier per call.

    Numeric span widening via ``np.fmin``/``np.fmax`` against the
    ``NaN``-missing value vectors, categorical membership via code comparison
    against the cluster's value-code mask; every contributing attribute is
    gathered and rescored on every :meth:`costs` call.
    """

    def __init__(self, owner: ClusterAnonymizer, dataset: Dataset, attributes):
        self._n_attributes = max(len(list(attributes)), 1)
        #: ("num", numbers, span, state index) / ("cat", cells, denominator,
        #: state index) per *contributing* attribute, in attribute order.
        self._specs: list[tuple] = []
        numeric_count = 0
        self._masks: list[np.ndarray] = []
        self._counts: list[int] = []
        for name in attributes:
            if name in owner._numeric:
                span = owner._domain_span[name]
                if span <= 0:
                    continue
                numbers = dataset.columnar(name).numbers
                self._specs.append(("num", numbers, span, numeric_count))
                numeric_count += 1
            else:
                size = owner._domain_size[name]
                if size <= 1:
                    continue
                cells, labels = dataset.columnar(name).string_codes()
                mask = np.zeros(len(labels) + 1, dtype=bool)
                mask[len(labels)] = True  # missing cells never add a new value
                self._specs.append(("cat", cells, max(size - 1, 1), len(self._masks)))
                self._masks.append(mask)
                self._counts.append(0)
        self._lo = np.full(numeric_count, np.inf)
        self._hi = np.full(numeric_count, -np.inf)

    def reset(self, seed: int) -> None:
        """Re-anchor the running bounds on a fresh cluster seeded at ``seed``."""
        for kind, cells_or_numbers, _parameter, position in self._specs:
            if kind == "num":
                value = cells_or_numbers[seed]
                missing = np.isnan(value)
                self._lo[position] = np.inf if missing else value
                self._hi[position] = -np.inf if missing else value
            else:
                mask = self._masks[position]
                mask[:-1] = False
                code = cells_or_numbers[seed]
                if code != mask.size - 1:
                    mask[code] = True
                    self._counts[position] = 1
                else:
                    self._counts[position] = 0

    def add(self, index: int) -> None:
        """Widen the bounds with record ``index`` (missing cells widen nothing)."""
        for kind, cells_or_numbers, _parameter, position in self._specs:
            if kind == "num":
                value = cells_or_numbers[index]
                if not np.isnan(value):
                    self._lo[position] = min(self._lo[position], value)
                    self._hi[position] = max(self._hi[position], value)
            else:
                mask = self._masks[position]
                code = cells_or_numbers[index]
                if code != mask.size - 1 and not mask[code]:
                    mask[code] = True
                    self._counts[position] += 1

    def costs(self, candidates: np.ndarray) -> np.ndarray:
        """Bounding-generalization NCP of the cluster widened by each candidate."""
        cost = np.zeros(candidates.size)
        for kind, cells_or_numbers, parameter, position in self._specs:
            if kind == "num":
                values = cells_or_numbers[candidates]
                width = np.fmax(self._hi[position], values) - np.fmin(
                    self._lo[position], values
                )
                cost += np.maximum(width, 0.0) / parameter
            else:
                extra = ~self._masks[position][cells_or_numbers[candidates]]
                cost += (self._counts[position] + extra - 1.0) / parameter
        return cost / self._n_attributes


def grow_clusters_frontier(
    algorithm: ClusterAnonymizer, dataset: Dataset, attributes: Sequence[str]
) -> tuple[list[list[int]], list[int]]:
    """Greedy growth with one :class:`FrontierClusterKernel` pass per member."""
    kernel = FrontierClusterKernel(algorithm, dataset, attributes)
    unassigned = np.arange(len(dataset), dtype=np.int64)
    clusters: list[list[int]] = []
    while unassigned.size >= algorithm.k:
        seed = int(unassigned[0])
        unassigned = unassigned[1:]
        cluster = [seed]
        kernel.reset(seed)
        while len(cluster) < algorithm.k:
            best_position = int(np.argmin(kernel.costs(unassigned)))
            best_index = int(unassigned[best_position])
            cluster.append(best_index)
            kernel.add(best_index)
            unassigned = np.delete(unassigned, best_position)
        clusters.append(cluster)
    return clusters, [int(index) for index in unassigned]


def cluster_cost_scalar(
    algorithm: ClusterAnonymizer,
    dataset: Dataset,
    attributes: Sequence[str],
    indices: Sequence[int],
) -> float:
    """NCP of the minimum bounding generalization, walking every member."""
    cost = 0.0
    for name in attributes:
        values = [dataset[index][name] for index in indices]
        if name in algorithm._numeric:
            span = algorithm._domain_span[name]
            if span <= 0:
                continue
            numeric_values = [float(v) for v in values if v is not None]
            if not numeric_values:
                continue
            cost += (max(numeric_values) - min(numeric_values)) / span
        else:
            distinct = {str(v) for v in values if v is not None}
            size = algorithm._domain_size[name]
            if size <= 1:
                continue
            hierarchy = algorithm.hierarchies.get(name)
            if hierarchy is not None and len(distinct) > 1:
                ancestor = hierarchy.lowest_common_ancestor(distinct)
                width = hierarchy.leaf_count(ancestor)
            else:
                width = len(distinct)
            cost += (width - 1) / max(size - 1, 1)
    return cost / max(len(attributes), 1)


def bounds_scalar(
    algorithm: ClusterAnonymizer,
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
        None if name in algorithm._numeric else frozenset() for name in attributes
    ]
    for index in indices:
        record = dataset[index]
        for position, name in enumerate(attributes):
            value = record[name]
            if value is None:
                continue
            bound = bounds[position]
            if name in algorithm._numeric:
                number = float(value)
                bounds[position] = (
                    (number, number)
                    if bound is None
                    else (min(bound[0], number), max(bound[1], number))
                )
            else:
                bounds[position] = bound | {str(value)}
    return bounds


def bounds_cost_scalar(
    algorithm: ClusterAnonymizer, attributes: Sequence[str], bounds: list
) -> float:
    """NCP of the minimum bounding generalization summarised by ``bounds``."""
    cost = 0.0
    for name, bound in zip(attributes, bounds):
        if name in algorithm._numeric:
            span = algorithm._domain_span[name]
            if span <= 0 or bound is None:
                continue
            cost += (bound[1] - bound[0]) / span
        else:
            size = algorithm._domain_size[name]
            if size <= 1:
                continue
            hierarchy = algorithm.hierarchies.get(name)
            if hierarchy is not None and len(bound) > 1:
                ancestor = hierarchy.lowest_common_ancestor(bound)
                width = hierarchy.leaf_count(ancestor)
            else:
                width = len(bound)
            cost += (width - 1) / max(size - 1, 1)
    return cost / max(len(attributes), 1)


def generalized_values_scalar(
    algorithm: ClusterAnonymizer,
    dataset: Dataset,
    attributes: Sequence[str],
    indices: Sequence[int],
) -> dict[str, str | None]:
    """The published value per attribute for one cluster, read off its rows.

    An attribute that every member lacks stays missing (``None``).
    """
    published: dict[str, str | None] = {}
    for name in attributes:
        values = [dataset[index][name] for index in indices]
        present = [value for value in values if value is not None]
        if not present:
            published[name] = None
        elif name in algorithm._numeric:
            numeric_values = [float(v) for v in present]
            low, high = min(numeric_values), max(numeric_values)
            if low == high:
                published[name] = str(int(low)) if float(low).is_integer() else str(low)
            else:
                published[name] = format_interval(low, high)
        else:
            distinct = {str(v) for v in present}
            if len(distinct) == 1:
                published[name] = next(iter(distinct))
            else:
                hierarchy = algorithm.hierarchies.get(name)
                if hierarchy is not None:
                    published[name] = hierarchy.lowest_common_ancestor(distinct)
                else:
                    published[name] = generalized_label(distinct)
    return published


class ScalarClusterAnonymizer(ClusterAnonymizer):
    """:class:`ClusterAnonymizer` with every step on per-record loops."""

    def _grow_clusters(self, dataset, attributes):
        return grow_clusters_scalar(self, dataset, attributes)

    def _attach_leftovers(self, dataset, attributes, clusters, leftovers):
        for leftover in leftovers:
            best_position = None
            best_cost = None
            for position, cluster in enumerate(clusters):
                cost = cluster_cost_scalar(self, dataset, attributes, cluster + [leftover])
                if best_cost is None or cost < best_cost:
                    best_cost = cost
                    best_position = position
            clusters[best_position].append(leftover)

    def generalize_clusters(self, dataset, clusters, attributes=None, name_suffix="cluster"):
        attributes = list(
            attributes or self.attributes or relational_quasi_identifiers(dataset)
        )
        if not getattr(self, "_domain_size", None):
            self._prepare(dataset, attributes)
        anonymized = dataset.copy(name=f"{dataset.name}[{name_suffix}]")
        for cluster in clusters:
            published = generalized_values_scalar(self, dataset, attributes, cluster)
            for index in cluster:
                for attribute, value in published.items():
                    anonymized.set_value(index, attribute, value)
        return anonymized


def apply_by_cells(
    dataset: Dataset, lattice: GeneralizationLattice, node: LevelVector
) -> Dataset:
    """``dataset`` generalized to ``node``, one ``set_value`` per cell."""
    result = dataset.copy(name=f"{dataset.name}[full-domain]")
    for attribute, level in zip(lattice.attributes, node):
        if level <= 0:
            continue
        hierarchy = lattice.hierarchies[attribute]
        for index, record in enumerate(dataset):
            label = hierarchy.generalize_to_level(str(record[attribute]), level)
            result.set_value(index, attribute, label)
    return result


class ScalarIncognito(Incognito):
    """:class:`Incognito` choosing by building and scoring every minimal node.

    ``selected`` keeps the winning candidate dataset as the selection built it.
    """

    selected: Dataset | None = None

    def _select_best(self, dataset, index, candidates, attributes):
        best = None
        ranked = sorted(candidates, key=index.loss_proxy)
        for node in ranked:
            candidate = apply_by_cells(dataset, index.lattice, node)
            gcp = global_certainty_penalty(
                dataset, candidate, attributes=attributes, hierarchies=self.hierarchies
            )
            if best is None or gcp < best[2]:
                best = (node, candidate, gcp)
        node, self.selected, gcp = best
        return node, gcp


class ScalarTopDown(TopDownSpecialization):
    """:class:`TopDownSpecialization` counting classes in a tuple dictionary and
    publishing by copying the rows and rewriting each attribute with ``map_column``."""

    def _publish(self, dataset, states):
        anonymized = dataset.copy(name=f"{dataset.name}[top-down]")
        for attribute, state in states.items():
            mapping = {value: state.current_label(value) for value in state.distinct}
            anonymized.map_column(attribute, lambda value, m=mapping: m.get(str(value), value))
        return anonymized

    def _min_class_size(self, dataset, states):
        groups: dict[tuple, int] = {}
        attributes = list(states)
        value_maps = {
            attribute: {
                value: states[attribute].current_label(value)
                for value in states[attribute].distinct
            }
            for attribute in attributes
        }
        for record in dataset:
            key = tuple(
                value_maps[attribute][str(record[attribute])] for attribute in attributes
            )
            groups[key] = groups.get(key, 0) + 1
        return min(groups.values()) if groups else 0


def min_class_size_group_by(
    dataset: Dataset, attributes: Sequence[str] | None = None
) -> int:
    """Size of the smallest equivalence class, from the per-record groups."""
    groups = equivalence_classes(dataset, attributes)
    return min((len(indices) for indices in groups.values()), default=0)


def k_violations_group_by(
    dataset: Dataset, k: int, attributes: Sequence[str] | None = None
) -> list[KViolation]:
    """Every class of fewer than ``k`` records, from the per-record groups."""
    return [
        KViolation(values=values, size=len(indices), records=tuple(indices))
        for values, indices in equivalence_classes(dataset, attributes).items()
        if len(indices) < k
    ]


def anonymous_nodes_by_definition(
    dataset: Dataset, lattice: GeneralizationLattice, k: int
) -> dict[LevelVector, bool]:
    """Whether each lattice node is k-anonymous, each applied by :func:`apply_by_cells`."""
    return {
        node: min_class_size_group_by(
            apply_by_cells(dataset, lattice, node), lattice.attributes
        )
        >= k
        for node in lattice.iter_nodes()
    }


def minimal_nodes_by_definition(
    dataset: Dataset, lattice: GeneralizationLattice, k: int
) -> list[LevelVector]:
    """The minimal k-anonymous nodes of ``lattice``, in ``iter_levels()`` order.

    Every node is applied and checked on its per-record groups; a node is
    minimal when it is k-anonymous and none of its direct specializations is.
    """
    anonymous = anonymous_nodes_by_definition(dataset, lattice, k)
    return [
        node
        for level_nodes in lattice.iter_levels()
        for node in level_nodes
        if anonymous[node]
        and not any(anonymous[child] for child in lattice.predecessors(node))
    ]


def average_cell_ncp(context: RelationalLossContext, record) -> float:
    """Average NCP of one anonymized record over the context's attributes."""
    if not context.attributes:
        return 0.0
    return sum(
        context.cell_ncp(attribute, record[attribute])
        for attribute in context.attributes
    ) / len(context.attributes)
