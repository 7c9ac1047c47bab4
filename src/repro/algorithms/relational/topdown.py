"""Top-Down Specialization (Fung, Wang, Yu, ICDE 2005).

The algorithm starts from the fully generalized table (every quasi-identifier
at the root of its hierarchy, which is trivially k-anonymous) and repeatedly
performs the most beneficial *specialization*: replacing one generalized value
in the current multi-dimensional cut by its children, provided the table stays
k-anonymous.  The process stops when no specialization is valid any more, so
the output is a maximally specific k-anonymous generalization.

The original paper scores specializations by information gain towards a
classification task divided by the anonymity loss.  SECRETA uses the
algorithm as a generic anonymizer, so this implementation scores a
specialization by the information-loss (NCP) reduction it buys, with the
k-anonymity requirement enforced as a hard constraint — the same greedy
structure with a task-neutral utility function (documented substitution).
"""

from __future__ import annotations

from typing import Mapping, Sequence

import numpy as np

from repro.algorithms.base import (
    AnonymizationResult,
    Anonymizer,
    PhaseTimer,
    relational_quasi_identifiers,
    require_hierarchies,
    validate_k,
)
from repro.columnar.relational import CategoricalColumn, class_sizes, mixed_radix_keys
from repro.datasets.dataset import Dataset
from repro.exceptions import AlgorithmError
from repro.hierarchy.hierarchy import Hierarchy
from repro.metrics.relational import global_certainty_penalty


class _AttributeState:
    """Per-attribute bookkeeping: value paths, the current cut and NCP costs."""

    def __init__(self, attribute: str, hierarchy: Hierarchy, values: list):
        self.attribute = attribute
        self.hierarchy = hierarchy
        strings = [str(value) for value in values]
        self.distinct = sorted(set(strings))
        position = {value: code for code, value in enumerate(self.distinct)}
        #: Per-record index into ``distinct``.
        self.codes = np.array([position[value] for value in strings], dtype=np.int64)
        self.counts = dict(
            zip(self.distinct, np.bincount(self.codes, minlength=len(self.distinct)).tolist())
        )
        # Leaf-to-root path (inclusive) per distinct value.
        self.paths = {
            value: [value] + hierarchy.ancestors(value) for value in self.distinct
        }
        self.cut: set[str] = {hierarchy.root.label}
        self.domain_size = max(len(self.distinct), 1)
        root_interval = hierarchy.node(hierarchy.root.label).interval
        self.domain_span = (
            (root_interval[1] - root_interval[0]) if root_interval else None
        )

    def label_codes(self) -> tuple[np.ndarray, int]:
        """Per-record codes of the current cut labels, and how many there are."""
        labels = [self.current_label(value) for value in self.distinct]
        position = {label: code for code, label in enumerate(dict.fromkeys(labels))}
        per_value = np.array([position[label] for label in labels], dtype=np.int64)
        return per_value[self.codes], len(position)

    def current_label(self, value: str) -> str:
        for label in self.paths[value]:
            if label in self.cut:
                return label
        # The root is always in the cut, so this cannot be reached.
        raise AlgorithmError(f"value {value!r} is not covered by the current cut")

    def ncp(self, label: str) -> float:
        """NCP cost of publishing ``label`` for this attribute."""
        node = self.hierarchy.node(label)
        if self.domain_span is not None and node.interval is not None:
            if self.domain_span == 0:
                return 0.0
            return (node.interval[1] - node.interval[0]) / self.domain_span
        if self.domain_size <= 1:
            return 0.0
        return (self.hierarchy.leaf_count(label) - 1) / max(self.domain_size - 1, 1)

    def specialization_gain(self, label: str) -> float:
        """Total NCP reduction obtained by replacing ``label`` with its children."""
        gain = 0.0
        new_cut = (self.cut - {label}) | set(self.hierarchy.children(label))
        for value in self.distinct:
            if self.current_label(value) != label:
                continue
            for candidate in self.paths[value]:
                if candidate in new_cut:
                    gain += self.counts[value] * (self.ncp(label) - self.ncp(candidate))
                    break
        return gain

    def specialize(self, label: str) -> None:
        self.cut.remove(label)
        self.cut.update(self.hierarchy.children(label))

    def undo(self, label: str) -> None:
        self.cut.difference_update(self.hierarchy.children(label))
        self.cut.add(label)


class TopDownSpecialization(Anonymizer):
    """k-anonymity by iterative specialization from the fully generalized table."""

    name = "top-down"
    data_kind = "relational"

    def __init__(
        self,
        k: int,
        hierarchies: Mapping[str, Hierarchy],
        attributes: Sequence[str] | None = None,
    ):
        self.k = int(k)
        self.hierarchies = dict(hierarchies)
        self.attributes = list(attributes) if attributes is not None else None

    def parameters(self) -> dict:
        return {"k": self.k, "attributes": self.attributes}

    # -- helpers -------------------------------------------------------------------
    def _min_class_size(
        self, dataset: Dataset, states: dict[str, _AttributeState]
    ) -> int:
        keys = mixed_radix_keys(
            (state.label_codes() for state in states.values()), len(dataset)
        )
        sizes = class_sizes(keys)
        return int(sizes.min()) if sizes.size else 0

    def _publish(self, dataset: Dataset, states: dict[str, _AttributeState]) -> Dataset:
        """``dataset`` with every distinct value replaced by its label in the final cut.

        Each attribute is its state's per-record codes over the distinct
        value strings and one cut label per distinct value
        (:meth:`~repro.columnar.relational.CategoricalColumn.from_images`),
        so no row is copied.
        """
        return dataset.with_columns(
            {
                attribute: CategoricalColumn.from_images(
                    dataset.schema[attribute],
                    [state.current_label(value) for value in state.distinct],
                    state.codes,
                )
                for attribute, state in states.items()
            },
            name=f"{dataset.name}[top-down]",
        )

    # -- main ----------------------------------------------------------------------
    def anonymize(self, dataset: Dataset) -> AnonymizationResult:
        attributes = self.attributes or relational_quasi_identifiers(dataset)
        if not attributes:
            raise AlgorithmError(
                "TopDownSpecialization: the dataset has no relational quasi-identifiers"
            )
        require_hierarchies(attributes, self.hierarchies, "TopDownSpecialization")
        validate_k(self.k, len(dataset), "TopDownSpecialization")

        timer = PhaseTimer()
        with timer.phase("initialisation"):
            states = {
                attribute: _AttributeState(
                    attribute, self.hierarchies[attribute], dataset.column(attribute)
                )
                for attribute in attributes
            }

        specializations = 0
        with timer.phase("specialization"):
            while True:
                candidates: list[tuple[float, str, str]] = []
                for attribute, state in states.items():
                    for label in list(state.cut):
                        if not state.hierarchy.children(label):
                            continue
                        gain = state.specialization_gain(label)
                        candidates.append((gain, attribute, label))
                if not candidates:
                    break
                candidates.sort(key=lambda entry: (-entry[0], entry[1], entry[2]))
                applied = False
                for gain, attribute, label in candidates:
                    if gain <= 0 and specializations > 0:
                        # Only non-positive gains remain; further splitting
                        # cannot improve utility.
                        break
                    state = states[attribute]
                    state.specialize(label)
                    if self._min_class_size(dataset, states) >= self.k:
                        specializations += 1
                        applied = True
                        break
                    state.undo(label)
                if not applied:
                    break

        with timer.phase("apply"):
            anonymized = self._publish(dataset, states)

        gcp = global_certainty_penalty(
            dataset, anonymized, attributes=attributes, hierarchies=self.hierarchies
        )
        cut_sizes = {attribute: len(state.cut) for attribute, state in states.items()}
        return AnonymizationResult(
            dataset=anonymized,
            algorithm=self.name,
            parameters=self.parameters(),
            runtime_seconds=timer.total,
            phase_seconds=timer.phases,
            statistics={
                "specializations": specializations,
                "cut_sizes": cut_sizes,
                "gcp": gcp,
                "min_class_size": self._min_class_size(dataset, states),
            },
        )
