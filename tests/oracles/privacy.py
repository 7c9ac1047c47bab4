"""Per-record references of the k^m checks' label resolution.

:mod:`repro.metrics.privacy_checks` resolves each distinct label of a
transaction column once.  The references below walk every record instead:

* :func:`candidate_support_scan` — the records whose labels' leaf sets
  together cover all of the given items;
* :func:`derived_universe_scan` — the items the labels of any record may
  stand for, the universe ``km_violations`` checks against by default.
"""

from __future__ import annotations

from typing import Iterable

from repro.datasets.dataset import Dataset
from repro.hierarchy.hierarchy import Hierarchy
from repro.index import interpreter_for


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
