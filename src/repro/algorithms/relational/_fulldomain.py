"""Shared machinery for full-domain (single-dimensional global recoding) algorithms.

Incognito and the full-subtree bottom-up algorithm both explore level vectors
of the generalization lattice and repeatedly need the equivalence-class sizes
a level vector induces.  Recomputing generalized tuples record by record for
every candidate is prohibitively slow in Python, so :class:`FullDomainIndex`
pre-computes, per attribute and per level, an integer code for every record
and answers class-size queries with a single vectorised pass; the same codes
score NCP per level and publish the chosen generalization as columns.
"""

from __future__ import annotations

from typing import Sequence

import numpy as np

from repro.columnar.relational import CategoricalColumn, class_sizes, mixed_radix_keys
from repro.datasets.dataset import Dataset, _normalise_cell
from repro.hierarchy.lattice import GeneralizationLattice, LevelVector
from repro.metrics.relational import RelationalLossContext


class FullDomainIndex:
    """Pre-computed per-level value codes for fast k-anonymity checks."""

    def __init__(
        self,
        dataset: Dataset,
        lattice: GeneralizationLattice,
    ):
        self.lattice = lattice
        self.attributes = lattice.attributes
        self._n_records = len(dataset)
        # levels[attribute][level] -> (int code per record, labels in code order)
        self._levels: dict[str, list[tuple[np.ndarray, tuple[str, ...]]]] = {}
        for attribute in self.attributes:
            hierarchy = lattice.hierarchies[attribute]
            column = dataset.columnar(attribute)
            self._levels[attribute] = []
            for level in range(hierarchy.height + 1):
                generalized = [
                    hierarchy.generalize_to_level(str(value), level)
                    for value in column.values
                ]
                labels = tuple(sorted(set(generalized)))
                label_code = {label: position for position, label in enumerate(labels)}
                value_codes = np.fromiter(
                    (label_code[label] for label in generalized),
                    dtype=np.int64,
                    count=len(generalized),
                )
                self._levels[attribute].append((column.take(value_codes), labels))

    def _level(self, attribute: str, level: int) -> tuple[np.ndarray, tuple[str, ...]]:
        levels = self._levels[attribute]
        return levels[min(level, len(levels) - 1)]

    # -- class structure -------------------------------------------------------
    def _keys(self, node: LevelVector) -> np.ndarray:
        """Mixed-radix record keys identifying each record's equivalence class."""
        levels = (self._level(a, level) for a, level in zip(self.attributes, node))
        return mixed_radix_keys(
            ((codes, len(labels)) for codes, labels in levels), self._n_records
        )

    def class_sizes(self, node: LevelVector) -> np.ndarray:
        """Sizes of the equivalence classes induced by the level vector."""
        return class_sizes(self._keys(node))

    def min_class_size(self, node: LevelVector) -> int:
        sizes = self.class_sizes(node)
        return int(sizes.min()) if sizes.size else 0

    def is_k_anonymous(self, node: LevelVector, k: int) -> bool:
        return self._n_records == 0 or self.min_class_size(node) >= k

    def number_of_classes(self, node: LevelVector) -> int:
        sizes = self.class_sizes(node)
        return int(sizes.size)

    # -- application --------------------------------------------------------------
    def apply(self, dataset: Dataset, node: LevelVector) -> Dataset:
        """``dataset`` generalized to the level vector, built from columns.

        Each generalized attribute is its level's codes and labels
        (:meth:`~repro.columnar.relational.CategoricalColumn.from_images`);
        an attribute at level 0 keeps the input's cells and column.
        """
        columns = {}
        for attribute, level in zip(self.attributes, node):
            if level <= 0:
                continue
            codes, labels = self._level(attribute, level)
            columns[attribute] = CategoricalColumn.from_images(
                dataset.schema[attribute], labels, codes
            )
        return dataset.with_columns(columns, name=f"{dataset.name}[full-domain]")

    def level_ncp(
        self,
        dataset: Dataset,
        context: RelationalLossContext,
        attribute: str,
        level: int,
    ) -> np.ndarray:
        """Per-record NCP of ``attribute`` as :meth:`apply` publishes it at ``level``.

        One ``cell_ncp`` per level label, normalised as the dataset stores it
        (the original values at level 0), gathered by the level's codes.
        """
        if level <= 0:
            column = dataset.columnar(attribute)
            cells: Sequence = column.values
            codes = column.codes
        else:
            codes, labels = self._level(attribute, level)
            cells = [_normalise_cell(dataset.schema[attribute], label) for label in labels]
        table = np.fromiter(
            (context.cell_ncp(attribute, cell) for cell in cells),
            dtype=np.float64,
            count=len(cells),
        )
        return np.take(table, codes)

    def loss_proxy(self, node: LevelVector) -> float:
        """A cheap information-loss proxy: mean normalised level height."""
        total = 0.0
        for attribute, level in zip(self.attributes, node):
            height = self.lattice.hierarchies[attribute].height or 1
            total += min(level, height) / height
        return total / len(self.attributes) if self.attributes else 0.0
