"""Verification of privacy guarantees.

These checks are what make the reproduction trustworthy: every algorithm's
output is validated against its declared privacy model, both in the test
suite and (optionally) by the engine after each run.

* *k*-anonymity for relational attributes: every combination of
  quasi-identifier values shared by at least ``k`` records.
* *k*:sup:`m`-anonymity for transaction attributes: an adversary who knows up
  to ``m`` items of an individual cannot narrow that individual down to fewer
  than ``k`` records.  On generalized data the check is performed against the
  *candidate* records — those whose (possibly generalized) itemsets could
  contain the known items — which is the attacker's view and is valid for
  both global and local recoding.
* (*k*, *k*:sup:`m`)-anonymity for RT-datasets (Poulis et al. 2013): the
  relational part is *k*-anonymous and, within every relational equivalence
  class, the transaction part is *k*:sup:`m`-anonymous.

The *k*:sup:`m` check runs on the interpretation index and the bitset layer:
labels resolve to leaf sets through the memoized
:func:`repro.index.interpreter_for` (once per *distinct* label of the
column), per-item candidate bitsets are OR-ed together from the column's
CSR postings and turned into Python ``int`` rows, and the combinations are
enumerated by :func:`repro.columnar.bitset.rare_combinations` — one ``int``
AND + popcount per step, zero-support prefixes pruned since their supersets
cannot violate.
The item-cut search of Apriori, LRA and VPA runs on the same enumerator.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Sequence

import numpy as np

from repro.columnar.bitset import bitset_from_indices, popcount, rare_combinations
from repro.datasets.dataset import Dataset
from repro.exceptions import DatasetError
from repro.hierarchy.hierarchy import Hierarchy
from repro.index import interpreter_for
from repro.metrics.relational import equivalence_class_sizes, quasi_identifier_attributes


# -- relational: k-anonymity ---------------------------------------------------
def equivalence_classes(
    dataset: Dataset, attributes: Sequence[str] | None = None
) -> dict[tuple, list[int]]:
    """Equivalence classes over the given (default: QI relational) attributes."""
    if attributes is None:
        attributes = quasi_identifier_attributes(dataset)
    return dataset.group_by(list(attributes))


def min_class_size(dataset: Dataset, attributes: Sequence[str] | None = None) -> int:
    """Size of the smallest equivalence class (0 for an empty dataset)."""
    if attributes is None:
        attributes = quasi_identifier_attributes(dataset)
    sizes = equivalence_class_sizes(dataset, list(attributes))
    return int(sizes.min()) if sizes.size else 0


@dataclass(frozen=True)
class KViolation:
    """An equivalence class smaller than ``k``, with the records inside it.

    The ``records`` are the indices of the offending class — the
    counterexample an auditor can look up directly in the dataset.
    """

    values: tuple
    size: int
    records: tuple[int, ...]


def k_violations(
    dataset: Dataset,
    k: int,
    attributes: Sequence[str] | None = None,
    max_violations: int | None = None,
) -> list[KViolation]:
    """Every equivalence class of fewer than ``k`` records, as witnesses."""
    if k < 1:
        raise DatasetError("k must be at least 1")
    if len(dataset) == 0 or min_class_size(dataset, attributes) >= k:
        return []  # confirmed on the code matrix; no classes to materialise
    violations: list[KViolation] = []
    for values, indices in equivalence_classes(dataset, attributes).items():
        if len(indices) < k:
            violations.append(
                KViolation(values=values, size=len(indices), records=tuple(indices))
            )
            if max_violations is not None and len(violations) >= max_violations:
                break
    return violations


def is_k_anonymous(
    dataset: Dataset, k: int, attributes: Sequence[str] | None = None
) -> bool:
    """Whether every equivalence class has at least ``k`` records."""
    if len(dataset) == 0:
        if k < 1:
            raise DatasetError("k must be at least 1")
        return True
    return not k_violations(dataset, k, attributes, max_violations=1)


# -- transactions: k^m-anonymity ------------------------------------------------
def candidate_support(
    dataset: Dataset,
    items: Iterable[str],
    attribute: str | None = None,
    hierarchy: Hierarchy | None = None,
    universe: set[str] | None = None,
) -> int:
    """Number of records whose itemsets could contain all of ``items``.

    The popcount of the AND of the items' rows of :func:`candidate_matrix`.
    """
    attribute = attribute or dataset.single_transaction_attribute()
    wanted = list(dict.fromkeys(map(str, items)))
    if not wanted:
        return len(dataset)
    candidates = candidate_matrix(
        dataset, attribute, interpreter_for(hierarchy, universe), wanted
    )
    return popcount(np.bitwise_and.reduce(candidates))


def candidate_matrix(
    dataset: Dataset,
    attribute: str,
    interpreter,
    ordered_items: Sequence[str],
) -> np.ndarray:
    """Per-item candidate-record bitsets of a (generalized) transaction column.

    Row ``t`` is the bitset of records whose (possibly generalized) itemset
    *covers* item ``ordered_items[t]`` — the attacker's view of who could
    hold the item.  It is read off the column's CSR postings: each distinct
    label is resolved once by the shared ``interpreter``, and its posting
    bitset is OR-ed into the row of every item it may stand for.  Items
    outside ``ordered_items`` are ignored, and the rows are never built.
    """
    row_of = {item: row for row, item in enumerate(ordered_items)}
    column = dataset.columnar(attribute)
    postings = column.bitset_postings()
    candidates = np.zeros((len(row_of), postings.shape[1]), dtype=np.uint64)
    for token, label in enumerate(column.vocabulary.items):
        for item in row_of.keys() & interpreter.leaves(label):
            candidates[row_of[item]] |= postings[token]
    return candidates


@dataclass(frozen=True)
class KmViolation:
    """A combination of at most ``m`` items supported by fewer than ``k`` records.

    ``records`` holds the candidate records supporting the combination — the
    individuals an adversary knowing exactly these items would single out.
    """

    items: tuple[str, ...]
    support: int
    records: tuple[int, ...] = ()


def km_violations(
    dataset: Dataset,
    k: int,
    m: int,
    attribute: str | None = None,
    hierarchy: Hierarchy | None = None,
    universe: Iterable[str] | None = None,
    max_violations: int | None = None,
) -> list[KmViolation]:
    """All item combinations of size <= ``m`` violating k^m-anonymity.

    ``universe`` defaults to the set of original items the anonymized labels
    may stand for; pass the original dataset's universe to check against the
    attacker's full vocabulary.
    """
    if k < 1 or m < 1:
        raise DatasetError("k and m must be at least 1")
    attribute = attribute or dataset.single_transaction_attribute()

    if universe is None:
        universe = _covered_items(hierarchy, dataset.item_universe(attribute))
    ordered, rows = _candidate_rows(dataset, attribute, hierarchy, universe)
    return _rare_item_combinations(ordered, rows, k, m, max_violations)


def _covered_items(hierarchy: Hierarchy | None, labels: Iterable[str]) -> set[str]:
    """The original items the labels may stand for."""
    unrestricted = interpreter_for(hierarchy)
    return set().union(*map(unrestricted.leaves, labels))


def _candidate_rows(
    dataset: Dataset, attribute: str, hierarchy: Hierarchy | None, universe: Iterable[str]
) -> tuple[list[str], list[int]]:
    """The universe's items in order, and each one's candidate records as an ``int`` bitset."""
    universe_set = {str(item) for item in universe}
    ordered = sorted(universe_set)
    # Pack each item's candidate records (records whose covered leaf set
    # contains the item) into one bitset row, label by label.
    interpreter = interpreter_for(hierarchy, universe_set)
    candidates = candidate_matrix(dataset, attribute, interpreter, ordered)
    little_endian = candidates.astype("<u8", copy=False)
    return ordered, [int.from_bytes(row.tobytes(), "little") for row in little_endian]


def _rare_item_combinations(
    ordered: Sequence[str],
    rows: Sequence[int],
    k: int,
    m: int,
    max_violations: int | None,
) -> list[KmViolation]:
    """The combinations of at most ``m`` items supported by 1..k-1 of the rows' records."""
    # Enumerate by combination size, then lexicographically: the order of the
    # original itertools.combinations scan.
    violations: list[KmViolation] = []
    for size in range(1, m + 1):
        for combination, together in rare_combinations(rows, size, k):
            violations.append(
                KmViolation(
                    items=tuple(ordered[token] for token in combination),
                    support=together.bit_count(),
                    records=_set_bits(together),
                )
            )
            if max_violations is not None and len(violations) >= max_violations:
                return violations
    return violations


def _set_bits(bits: int) -> tuple[int, ...]:
    """The positions of the set bits of ``bits``, ascending."""
    positions = []
    while bits:
        lowest = bits & -bits
        positions.append(lowest.bit_length() - 1)
        bits ^= lowest
    return tuple(positions)


def is_km_anonymous(
    dataset: Dataset,
    k: int,
    m: int,
    attribute: str | None = None,
    hierarchy: Hierarchy | None = None,
    universe: Iterable[str] | None = None,
) -> bool:
    """Whether the transaction attribute satisfies k^m-anonymity."""
    return not km_violations(
        dataset,
        k,
        m,
        attribute=attribute,
        hierarchy=hierarchy,
        universe=universe,
        max_violations=1,
    )


# -- RT-datasets: (k, k^m)-anonymity ----------------------------------------------
@dataclass(frozen=True)
class KKmViolation:
    """One way an RT-dataset fails (k, k^m)-anonymity.

    ``kind`` is ``"relational"`` (an equivalence class smaller than ``k``;
    ``items`` empty) or ``"transaction"`` (within the class identified by
    ``class_values``, knowing ``items`` narrows the candidates down to
    ``support`` < ``k`` records).  ``records`` always holds dataset-level
    indices of the singled-out records.
    """

    kind: str
    class_values: tuple
    records: tuple[int, ...]
    items: tuple[str, ...] = ()
    support: int = 0


def k_km_violations(
    dataset: Dataset,
    k: int,
    m: int,
    relational_attributes: Sequence[str] | None = None,
    transaction_attribute: str | None = None,
    hierarchy: Hierarchy | None = None,
    universe: Iterable[str] | None = None,
    max_violations: int | None = None,
) -> list[KKmViolation]:
    """Witnesses against (k, k^m)-anonymity (Poulis et al. 2013).

    The relational projection must be k-anonymous and the transaction
    projection of *every relational equivalence class* must be k^m-anonymous;
    each failure of either condition becomes one :class:`KKmViolation`.
    """
    transaction_attribute = (
        transaction_attribute or dataset.single_transaction_attribute()
    )
    violations: list[KKmViolation] = []

    def full() -> bool:
        return max_violations is not None and len(violations) >= max_violations

    for class_violation in k_violations(
        dataset, k, relational_attributes, max_violations=max_violations
    ):
        violations.append(
            KKmViolation(
                kind="relational",
                class_values=class_violation.values,
                records=class_violation.records,
            )
        )
        if full():
            return violations
    if m < 1 and len(dataset):
        raise DatasetError("k and m must be at least 1")
    # Each class is checked on the whole column's candidate rows masked to
    # its records, which gives the supports and (dataset-level) records a
    # check of the class's subset gives.
    shared = (
        None
        if universe is None
        else _candidate_rows(dataset, transaction_attribute, hierarchy, universe)
    )
    column = dataset.columnar(transaction_attribute)
    for values, indices in equivalence_classes(dataset, relational_attributes).items():
        members = bitset_from_indices(indices, len(dataset)).astype("<u8", copy=False)
        mask = int.from_bytes(members.tobytes(), "little")
        if shared is None:
            held = column.tokens[np.isin(column.record_ids(), indices)]
            labels = [column.vocabulary.items[token] for token in np.unique(held).tolist()]
            ordered, rows = _candidate_rows(
                dataset, transaction_attribute, hierarchy, _covered_items(hierarchy, labels)
            )
        else:
            ordered, rows = shared
        remaining = None if max_violations is None else max_violations - len(violations)
        for km_violation in _rare_item_combinations(
            ordered, [row & mask for row in rows], k, m, remaining
        ):
            violations.append(
                KKmViolation(
                    kind="transaction",
                    class_values=values,
                    records=km_violation.records,
                    items=km_violation.items,
                    support=km_violation.support,
                )
            )
        if full():
            return violations
    return violations


def is_k_km_anonymous(
    dataset: Dataset,
    k: int,
    m: int,
    relational_attributes: Sequence[str] | None = None,
    transaction_attribute: str | None = None,
    hierarchy: Hierarchy | None = None,
    universe: Iterable[str] | None = None,
) -> bool:
    """Whether an RT-dataset satisfies (k, k^m)-anonymity (Poulis et al. 2013).

    An adversary combining demographics with up to ``m`` items must still
    face at least ``k`` indistinguishable records.
    """
    return not k_km_violations(
        dataset,
        k,
        m,
        relational_attributes=relational_attributes,
        transaction_attribute=transaction_attribute,
        hierarchy=hierarchy,
        universe=universe,
        max_violations=1,
    )


def privacy_report(
    dataset: Dataset,
    k: int,
    m: int | None = None,
    relational_attributes: Sequence[str] | None = None,
    transaction_attribute: str | None = None,
    hierarchy: Hierarchy | None = None,
) -> dict:
    """A compact report of the privacy status of an anonymized dataset.

    Failed guarantees come with a counterexample: ``k_witness`` (the first
    undersized equivalence class) and ``km_witness`` (the first isolating
    item combination) point at the concrete records at risk.
    """
    report: dict = {"records": len(dataset), "k": k}
    has_relational = bool(
        relational_attributes
        if relational_attributes is not None
        else [a for a in dataset.schema.relational if a.quasi_identifier]
    )
    if has_relational:
        report["min_class_size"] = min_class_size(dataset, relational_attributes)
        report["k_anonymous"] = report["min_class_size"] >= k
        if not report["k_anonymous"]:
            report["k_witness"] = k_violations(
                dataset, k, relational_attributes, max_violations=1
            )[0]
    if m is not None and dataset.schema.transaction_names:
        report["m"] = m
        km_witnesses = km_violations(
            dataset,
            k,
            m,
            attribute=transaction_attribute,
            hierarchy=hierarchy,
            max_violations=1,
        )
        report["km_anonymous"] = not km_witnesses
        if km_witnesses:
            report["km_witness"] = km_witnesses[0]
    return report
