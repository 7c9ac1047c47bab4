"""Per-record references of the k^m checks' label resolution.

:mod:`repro.metrics.privacy_checks` resolves each distinct label of a
transaction column once.  The references below walk every record instead:

* :func:`candidate_support_scan` — the records whose labels' leaf sets
  together cover all of the given items;
* :func:`derived_universe_scan` — the items the labels of any record may
  stand for, the universe ``km_violations`` checks against by default;
* :func:`group_by_rows` — ``Dataset.group_by`` walking every row;
* :func:`k_km_violations_by_subsets` — the (k, k^m) witnesses with every
  relational class checked on its own ``Dataset.subset``.
"""

from __future__ import annotations

from typing import Iterable, Sequence

from repro.datasets.dataset import Dataset
from repro.hierarchy.hierarchy import Hierarchy
from repro.index import interpreter_for
from repro.metrics.privacy_checks import KKmViolation, km_violations


def candidate_support_scan(
    dataset: Dataset,
    items: Iterable[str],
    attribute: str,
    hierarchy: Hierarchy | None = None,
    universe: set[str] | None = None,
) -> int:
    """Number of records whose itemsets could contain all of ``items``."""
    items = [str(item) for item in items]
    interpreter = interpreter_for(hierarchy, universe)
    support = 0
    for record in dataset:
        covered: set[str] = set()
        for label in record[attribute]:
            covered |= interpreter.leaves(label)
        if all(item in covered for item in items):
            support += 1
    return support


def derived_universe_scan(
    dataset: Dataset, attribute: str, hierarchy: Hierarchy | None = None
) -> set[str]:
    """Every item some record's labels may stand for."""
    unrestricted = interpreter_for(hierarchy)
    derived: set[str] = set()
    for record in dataset:
        for label in record[attribute]:
            derived |= unrestricted.leaves(label)
    return derived


def group_by_rows(dataset: Dataset, names: Sequence[str]) -> dict[tuple, list[int]]:
    """Record indices grouped by their cells on ``names``, walking every row."""
    groups: dict[tuple, list[int]] = {}
    for index, record in enumerate(dataset):
        groups.setdefault(record.values_for(names), []).append(index)
    return groups


def k_km_violations_by_subsets(
    dataset: Dataset,
    k: int,
    m: int,
    relational_attributes: Sequence[str],
    transaction_attribute: str,
    hierarchy: Hierarchy | None = None,
    universe: Iterable[str] | None = None,
) -> list[KKmViolation]:
    """Every (k, k^m) witness, each class's k^m check run on its ``subset``."""
    violations = [
        KKmViolation(kind="relational", class_values=values, records=tuple(indices))
        for values, indices in group_by_rows(dataset, relational_attributes).items()
        if len(indices) < k
    ]
    for values, indices in group_by_rows(dataset, relational_attributes).items():
        for witness in km_violations(
            dataset.subset(indices),
            k,
            m,
            attribute=transaction_attribute,
            hierarchy=hierarchy,
            universe=universe,
        ):
            violations.append(
                KKmViolation(
                    kind="transaction",
                    class_values=values,
                    records=tuple(indices[local] for local in witness.records),
                    items=witness.items,
                    support=witness.support,
                )
            )
    return violations
