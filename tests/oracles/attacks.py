"""Per-record scalar reference implementation of the attack simulator.

The brute-force oracle for :mod:`repro.attacks.simulator`: matching sets are
plain Python sets of record indices, built by probing every published record
against the shared coverage semantics (:mod:`repro.attacks.coverage`).  No
bitsets, no NumPy reductions — only the set algebra a pencil-and-paper check
would use.  The REP003 manifest pins each kernel to its ``*_sizes_scalar``
function here.  :func:`qi_attack`, :func:`item_attack` and :func:`rt_attack`
take the simulator's arguments and return its :class:`AttackResult`, so the
tests and the attack benchmark compare the two paths as equal dataclasses.

Per-value and per-combination matching sets are memoized (the semantics are
pure functions of the value/combination), which keeps the oracle runnable at
benchmark scale while leaving the per-record logic untouched.
"""

from __future__ import annotations

from typing import Callable, Iterable, Sequence

from repro.attacks.coverage import AttributeCoverage, knowledge_combos
from repro.attacks.simulator import (
    AttackResult,
    check_aligned,
    finalize_sizes,
    item_attack_inputs,
    qi_coverages,
    resolve_qi_attributes,
)
from repro.datasets.dataset import Dataset, Record
from repro.hierarchy.hierarchy import Hierarchy
from repro.index import interpreter_for


def best_knowledge(
    items: Iterable[object],
    m: int,
    support_of: Callable[[tuple[str, ...]], int],
    cap: int | None = None,
    initial: int = 0,
) -> tuple[int, tuple[str, ...] | None, bool]:
    """The adversary's best (smallest nonzero) matching set for one target.

    The one-combination-at-a-time reference for the kernel's flattened
    per-target reduction (``_first_minimum`` in the simulator).
    ``support_of`` maps an item combination to its matching-set size in the
    anonymized output; combinations with support 0 mean the adversary's
    knowledge matches *nothing* (e.g. every trace of the items was
    suppressed) and are skipped — an attack that finds no candidates
    identifies no one.  ``initial`` seeds the minimum with the size of the
    knowledge-free matching set (the QI-only matching set in the combined
    attack); ``cap`` bounds the enumeration per target for huge baskets.

    Returns ``(best_size, witness_combo, truncated)`` with ``best_size == 0``
    when no knowledge yields a nonempty matching set, and ``witness_combo``
    ``None`` when the seed minimum was never beaten.
    """
    best = initial if initial > 0 else 0
    witness: tuple[str, ...] | None = None
    enumerated = 0
    for combo in knowledge_combos(items, m):
        if cap is not None and enumerated >= cap:
            return best, witness, True
        enumerated += 1
        support = support_of(combo)
        if 0 < support and (best == 0 or support < best):
            best = support
            witness = combo
    return best, witness, False


def _value_match_sets(
    original: Dataset,
    anonymized: Dataset,
    attributes: Sequence[str],
    coverages: dict[str, AttributeCoverage],
) -> list[tuple[str, dict]]:
    """Per attribute: original cell value -> records whose labels cover it."""
    matchers: list[tuple[str, dict]] = []
    for attribute in attributes:
        coverage = coverages[attribute]
        labels = [record[attribute] for record in anonymized]
        per_value: dict = {}
        for record in original:
            value = record[attribute]
            if value not in per_value:
                per_value[value] = frozenset(
                    index
                    for index, label in enumerate(labels)
                    if coverage.covers(label, value)
                )
        matchers.append((attribute, per_value))
    return matchers


def _qi_match_set(
    record: Record, matchers: Sequence[tuple[str, dict]]
) -> frozenset[int]:
    """One target's QI matching set: the intersection across attributes."""
    candidate_sets = sorted(
        (per_value[record[attribute]] for attribute, per_value in matchers),
        key=len,
    )
    matched = candidate_sets[0]
    for candidates in candidate_sets[1:]:
        matched = matched & candidates
        if not matched:
            break
    return matched


def qi_sizes_scalar(
    original: Dataset,
    anonymized: Dataset,
    attributes: Sequence[str],
    coverages: dict[str, AttributeCoverage],
) -> list[int]:
    """Per-record QI matching-set sizes via per-record set intersection."""
    matchers = _value_match_sets(original, anonymized, attributes, coverages)
    return [len(_qi_match_set(record, matchers)) for record in original]


def _item_candidate_sets(
    anonymized: Dataset,
    attribute: str,
    ordered_items: Sequence[str],
    hierarchy: Hierarchy | None,
) -> dict[str, frozenset[int]]:
    """Item -> records whose published itemsets could contain it."""
    interpreter = interpreter_for(hierarchy, set(ordered_items))
    wanted = set(ordered_items)
    per_item: dict[str, set[int]] = {item: set() for item in ordered_items}
    for index, record in enumerate(anonymized):
        for item in interpreter.covered_items(record[attribute]):
            if item in wanted:
                per_item[item].add(index)
    return {item: frozenset(records) for item, records in per_item.items()}


def _combo_support(
    combo: tuple[str, ...],
    candidates: dict[str, frozenset[int]],
    memo: dict[tuple[str, ...], frozenset[int]],
) -> frozenset[int]:
    matched = memo.get(combo)
    if matched is None:
        matched = candidates[combo[0]]
        for item in combo[1:]:
            matched = matched & candidates[item]
        memo[combo] = matched
    return matched


def item_sizes_scalar(
    original: Dataset,
    anonymized: Dataset,
    m: int,
    attribute: str,
    ordered_items: Sequence[str],
    hierarchy: Hierarchy | None,
    knowledge_cap: int | None,
) -> tuple[list[int], dict[int, tuple[str, ...]], bool]:
    """Per-record worst item-knowledge matching-set sizes via set algebra."""
    candidates = _item_candidate_sets(anonymized, attribute, ordered_items, hierarchy)
    combo_memo: dict[tuple[str, ...], frozenset[int]] = {}
    basket_memo: dict[frozenset, tuple[int, tuple[str, ...] | None, bool]] = {}
    wanted = set(ordered_items)
    sizes: list[int] = []
    knowledge: dict[int, tuple[str, ...]] = {}
    truncated = False
    for index, record in enumerate(original):
        basket = frozenset(
            str(item) for item in record[attribute] if str(item) in wanted
        )
        outcome = basket_memo.get(basket)
        if outcome is None:
            outcome = best_knowledge(
                basket,
                m,
                lambda combo: len(_combo_support(combo, candidates, combo_memo)),
                cap=knowledge_cap,
            )
            basket_memo[basket] = outcome
        best, witness, hit_cap = outcome
        sizes.append(best)
        if witness is not None:
            knowledge[index] = witness
        truncated = truncated or hit_cap
    return sizes, knowledge, truncated


def rt_sizes_scalar(
    original: Dataset,
    anonymized: Dataset,
    m: int,
    attributes: Sequence[str],
    coverages: dict[str, AttributeCoverage],
    attribute: str,
    ordered_items: Sequence[str],
    hierarchy: Hierarchy | None,
    knowledge_cap: int | None,
) -> tuple[list[int], dict[int, tuple[str, ...]], bool]:
    """Combined QI + item matching-set sizes, one target at a time."""
    matchers = _value_match_sets(original, anonymized, attributes, coverages)
    candidates = _item_candidate_sets(anonymized, attribute, ordered_items, hierarchy)
    combo_memo: dict[tuple[str, ...], frozenset[int]] = {}
    wanted = set(ordered_items)
    sizes: list[int] = []
    knowledge: dict[int, tuple[str, ...]] = {}
    truncated = False
    for index, record in enumerate(original):
        qi_matched = _qi_match_set(record, matchers)
        basket = frozenset(
            str(item) for item in record[attribute] if str(item) in wanted
        )
        best, witness, hit_cap = best_knowledge(
            basket,
            m,
            lambda combo: len(
                qi_matched & _combo_support(combo, candidates, combo_memo)
            ),
            cap=knowledge_cap,
            initial=len(qi_matched),
        )
        sizes.append(best)
        if witness is not None:
            knowledge[index] = witness
        truncated = truncated or hit_cap
    return sizes, knowledge, truncated


def qi_attack(
    original: Dataset,
    anonymized: Dataset,
    attributes: Sequence[str] | None = None,
    hierarchies: dict[str, Hierarchy] | None = None,
) -> AttackResult:
    """:func:`repro.attacks.qi_attack` on per-record set intersection."""
    check_aligned(original, anonymized)
    attributes = resolve_qi_attributes(original, attributes)
    coverages = qi_coverages(original, attributes, hierarchies)
    return finalize_sizes("qi", qi_sizes_scalar(original, anonymized, attributes, coverages))


def item_attack(
    original: Dataset,
    anonymized: Dataset,
    m: int,
    attribute: str | None = None,
    hierarchy: Hierarchy | None = None,
    universe: set[str] | None = None,
    knowledge_cap: int | None = None,
) -> AttackResult:
    """:func:`repro.attacks.item_attack` on per-record set algebra."""
    check_aligned(original, anonymized)
    attribute, ordered_items = item_attack_inputs(original, attribute, universe)
    return finalize_sizes(
        "item",
        *item_sizes_scalar(
            original, anonymized, m, attribute, ordered_items, hierarchy, knowledge_cap
        ),
    )


def rt_attack(
    original: Dataset,
    anonymized: Dataset,
    m: int,
    relational_attributes: Sequence[str] | None = None,
    transaction_attribute: str | None = None,
    hierarchies: dict[str, Hierarchy] | None = None,
    item_hierarchy: Hierarchy | None = None,
    universe: set[str] | None = None,
    knowledge_cap: int | None = None,
) -> AttackResult:
    """:func:`repro.attacks.rt_attack`, one target at a time."""
    check_aligned(original, anonymized)
    attributes = resolve_qi_attributes(original, relational_attributes)
    coverages = qi_coverages(original, attributes, hierarchies)
    attribute, ordered_items = item_attack_inputs(original, transaction_attribute, universe)
    return finalize_sizes(
        "rt",
        *rt_sizes_scalar(
            original,
            anonymized,
            m,
            attributes,
            coverages,
            attribute,
            ordered_items,
            item_hierarchy,
            knowledge_cap,
        ),
    )
