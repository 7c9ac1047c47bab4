"""Re-identification attack simulation on the columnar bitset kernels.

The attacks play the prior-knowledge adversary of the (k, k^m) model
(Poulis et al. 2013) against a concrete anonymized output:

* :func:`qi_attack` — the adversary knows the target's original
  quasi-identifier values and collects every published record whose
  generalized cells could belong to the target (the *matching set*).
* :func:`item_attack` — the adversary knows up to ``m`` original
  transaction items of the target and collects the records whose published
  itemsets could contain them, for the worst of all such item combinations.
* :func:`rt_attack` — both at once: QI knowledge narrows the candidates,
  item knowledge narrows them further.

Each attack reports per-record matching-set sizes, re-identification risks
(``1 / |matching set|``) and the *empirical* guarantee — ``k̂`` (QI / RT) or
``k̂^m`` (items) — the smallest nonempty matching set any target yields.  A
correct anonymizer must achieve ``k̂ >= k``: every published record is
truthful (its generalized cells cover its own original values) and record
``i`` of the anonymized output corresponds to record ``i`` of the original,
so a target's matching set always contains its own equivalence class.  The
conformance suite (``tests/conformance``) asserts exactly this for every
algorithm × adversarial generator pairing.

Implementation: matching sets are uint64 record bitsets.  Per QI attribute,
the coverage of every distinct original value over every distinct published
label is decided once (memoized :class:`~repro.attacks.coverage.AttributeCoverage`)
and expanded into per-value cover bitsets by OR-ing label posting rows;
per-record matching sets are then chunked fancy-gathers AND-ed across
attributes and popcounted.  Item knowledge reuses the km checker's per-item
candidate bitsets (:func:`repro.metrics.privacy_checks.candidate_matrix`):
one AND + popcount per distinct item combination, memoized across the
(typically heavily repeated) baskets.  The per-record scalar oracle in
``tests/oracles/attacks.py`` is the REP003 equivalence reference.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

from repro.attacks.coverage import AttributeCoverage, best_knowledge, coverage_for
from repro.columnar.bitset import intersect_rows, popcount, popcount_rows, posting_matrix
from repro.datasets.dataset import Dataset
from repro.exceptions import DatasetError
from repro.hierarchy.hierarchy import Hierarchy
from repro.index import interpreter_for
from repro.metrics.privacy_checks import candidate_matrix
from repro.metrics.relational import quasi_identifier_attributes

#: Records per chunk in the matching-set AND passes: bounds the working-set
#: matrix to ``chunk × word_count(n)`` words instead of ``n × word_count(n)``.
CHUNK_RECORDS = 2048

#: Witness lists in an :class:`AttackResult` are capped at this many record
#: indices so reports stay small and picklable at any dataset size.
MAX_WITNESSES = 16


@dataclass(frozen=True)
class AttackResult:
    """Outcome of one simulated re-identification attack.

    ``match_sizes[i]`` is the size of the adversary's best (smallest
    nonempty) matching set for target record ``i`` — 0 when no knowledge
    about the target matches anything, i.e. the attack fails outright.
    ``empirical_k`` is the smallest nonzero matching set over all targets:
    the empirically observed privacy parameter (``k̂`` or ``k̂^m``), ``None``
    when every attack failed.  ``worst_records`` are the first
    :data:`MAX_WITNESSES` targets achieving ``empirical_k`` and
    ``worst_knowledge`` the item combination that got the first of them
    there (``None`` for the pure QI attack, or when QI knowledge alone was
    the adversary's best).  ``truncated`` flags that some target's knowledge
    enumeration hit the cap, making the reported risks lower bounds.
    """

    attack: str
    n_records: int
    match_sizes: tuple[int, ...]
    empirical_k: int | None
    mean_risk: float
    max_risk: float
    worst_records: tuple[int, ...]
    worst_knowledge: tuple[str, ...] | None = None
    truncated: bool = False

    @property
    def matched(self) -> int:
        """Number of targets the adversary found at least one candidate for."""
        return sum(1 for size in self.match_sizes if size > 0)

    def risk(self, record: int) -> float:
        """Re-identification probability of one target (0.0 when unmatched)."""
        size = self.match_sizes[record]
        return 1.0 / size if size else 0.0

    def summary(self) -> dict:
        return {
            "attack": self.attack,
            "records": self.n_records,
            "matched": self.matched,
            "empirical_k": self.empirical_k,
            "mean_risk": self.mean_risk,
            "max_risk": self.max_risk,
            "worst_records": list(self.worst_records),
            "worst_knowledge": (
                None if self.worst_knowledge is None else list(self.worst_knowledge)
            ),
            "truncated": self.truncated,
        }


def finalize_sizes(
    attack: str,
    sizes: Sequence[int],
    knowledge: dict[int, tuple[str, ...]] | None = None,
    truncated: bool = False,
) -> AttackResult:
    """Fold per-record matching-set sizes into an :class:`AttackResult`.

    Shared by the kernels and the scalar oracle so their results are equal
    as dataclasses whenever the per-record sizes (and witnesses) are.
    """
    match_sizes = tuple(int(size) for size in sizes)
    empirical: int | None = None
    for size in match_sizes:
        if size > 0 and (empirical is None or size < empirical):
            empirical = size
    worst: tuple[int, ...] = ()
    worst_knowledge: tuple[str, ...] | None = None
    if empirical is not None:
        worst = tuple(
            index for index, size in enumerate(match_sizes) if size == empirical
        )[:MAX_WITNESSES]
        if knowledge:
            worst_knowledge = knowledge.get(worst[0])
    n_records = len(match_sizes)
    mean_risk = (
        sum(1.0 / size for size in match_sizes if size) / n_records
        if n_records
        else 0.0
    )
    max_risk = 1.0 / empirical if empirical else 0.0
    return AttackResult(
        attack=attack,
        n_records=n_records,
        match_sizes=match_sizes,
        empirical_k=empirical,
        mean_risk=mean_risk,
        max_risk=max_risk,
        worst_records=worst,
        worst_knowledge=worst_knowledge,
        truncated=truncated,
    )


# -- shared input validation ---------------------------------------------------
def check_aligned(original: Dataset, anonymized: Dataset) -> None:
    """Attacks link record ``i`` to record ``i``; the datasets must align."""
    if len(original) != len(anonymized):
        raise DatasetError(
            "attack simulation requires record-aligned datasets: "
            f"original has {len(original)} records, "
            f"anonymized has {len(anonymized)}"
        )


def resolve_qi_attributes(
    original: Dataset, attributes: Sequence[str] | None
) -> list[str]:
    resolved = (
        list(attributes)
        if attributes is not None
        else quasi_identifier_attributes(original)
    )
    if not resolved:
        raise DatasetError(
            "qi attack requires at least one quasi-identifier attribute"
        )
    return resolved


def qi_coverages(
    original: Dataset,
    attributes: Sequence[str],
    hierarchies: dict[str, Hierarchy] | None,
) -> dict[str, AttributeCoverage]:
    """The coverage semantics of every QI attribute (numeric ones as intervals)."""
    numeric = {name for name in attributes if original.schema[name].is_numeric}
    return coverage_for(attributes, numeric, hierarchies)


# -- QI attack -----------------------------------------------------------------
def _qi_cover_tables(
    original: Dataset,
    anonymized: Dataset,
    attributes: Sequence[str],
    coverages: dict[str, AttributeCoverage],
) -> list[tuple[np.ndarray, np.ndarray]]:
    """Per attribute: (per-original-value cover bitsets, per-record codes).

    ``cover[c]`` is the bitset of anonymized records whose published label
    covers distinct original value ``c``; gathering ``cover[codes[i]]``
    yields record ``i``'s single-attribute matching set.
    """
    n_records = len(anonymized)
    record_ids = np.arange(n_records, dtype=np.int64)
    tables: list[tuple[np.ndarray, np.ndarray]] = []
    for attribute in attributes:
        original_column = original.columnar(attribute)
        anonymized_column = anonymized.columnar(attribute)
        postings = posting_matrix(
            anonymized_column.codes.astype(np.int64),
            record_ids,
            len(anonymized_column.values),
            n_records,
        )
        coverage = coverages[attribute]
        cover = np.zeros(
            (max(len(original_column.values), 1), postings.shape[1]),
            dtype=np.uint64,
        )
        for code, value in enumerate(original_column.values):
            for label_code, label in enumerate(anonymized_column.values):
                if coverage.covers(label, value):
                    cover[code] |= postings[label_code]
        tables.append((cover, original_column.codes.astype(np.int64)))
    return tables


def _qi_sizes_kernel(
    original: Dataset,
    anonymized: Dataset,
    attributes: Sequence[str],
    coverages: dict[str, AttributeCoverage],
) -> list[int]:
    """Per-record QI matching-set sizes via chunked bitset AND + popcount."""
    n_records = len(anonymized)
    tables = _qi_cover_tables(original, anonymized, attributes, coverages)
    sizes = np.empty(n_records, dtype=np.int64)
    for start in range(0, n_records, CHUNK_RECORDS):
        stop = min(n_records, start + CHUNK_RECORDS)
        first_cover, first_codes = tables[0]
        accumulator = first_cover[first_codes[start:stop]]
        for cover, codes in tables[1:]:
            accumulator &= cover[codes[start:stop]]
        sizes[start:stop] = popcount_rows(accumulator)
    return [int(size) for size in sizes]


def qi_attack(
    original: Dataset,
    anonymized: Dataset,
    attributes: Sequence[str] | None = None,
    hierarchies: dict[str, Hierarchy] | None = None,
) -> AttackResult:
    """Simulate the QI-knowledge adversary against an anonymized output."""
    check_aligned(original, anonymized)
    attributes = resolve_qi_attributes(original, attributes)
    coverages = qi_coverages(original, attributes, hierarchies)
    return finalize_sizes(
        "qi", _qi_sizes_kernel(original, anonymized, attributes, coverages)
    )


# -- item attack ---------------------------------------------------------------
def item_attack_inputs(
    original: Dataset,
    attribute: str | None,
    universe: set[str] | None,
) -> tuple[str, list[str]]:
    attribute = attribute or original.single_transaction_attribute()
    if universe is None:
        universe = original.item_universe(attribute)
    return attribute, sorted(str(item) for item in universe)


def _item_sizes_kernel(
    original: Dataset,
    anonymized: Dataset,
    m: int,
    attribute: str,
    ordered_items: Sequence[str],
    hierarchy: Hierarchy | None,
    knowledge_cap: int | None,
) -> tuple[list[int], dict[int, tuple[str, ...]], bool]:
    """Per-record worst item-knowledge matching-set sizes on candidate bitsets."""
    interpreter = interpreter_for(hierarchy, set(ordered_items))
    candidates = candidate_matrix(anonymized, attribute, interpreter, ordered_items)
    token_of = {item: token for token, item in enumerate(ordered_items)}
    support_memo: dict[tuple[str, ...], int] = {}

    def support_of(combo: tuple[str, ...]) -> int:
        support = support_memo.get(combo)
        if support is None:
            rows = np.fromiter(
                (token_of[item] for item in combo), dtype=np.int64, count=len(combo)
            )
            support = popcount(intersect_rows(candidates, rows))
            support_memo[combo] = support
        return support

    basket_memo: dict[frozenset, tuple[int, tuple[str, ...] | None, bool]] = {}
    sizes: list[int] = []
    knowledge: dict[int, tuple[str, ...]] = {}
    truncated = False
    for index, record in enumerate(original):
        basket = frozenset(
            str(item) for item in record[attribute] if str(item) in token_of
        )
        outcome = basket_memo.get(basket)
        if outcome is None:
            outcome = best_knowledge(basket, m, support_of, cap=knowledge_cap)
            basket_memo[basket] = outcome
        best, witness, hit_cap = outcome
        sizes.append(best)
        if witness is not None:
            knowledge[index] = witness
        truncated = truncated or hit_cap
    return sizes, knowledge, truncated


def item_attack(
    original: Dataset,
    anonymized: Dataset,
    m: int,
    attribute: str | None = None,
    hierarchy: Hierarchy | None = None,
    universe: set[str] | None = None,
    knowledge_cap: int | None = None,
) -> AttackResult:
    """Simulate the m-item-knowledge adversary against an anonymized output.

    ``universe`` is the adversary's item vocabulary (default: the original
    dataset's universe); knowledge combinations are drawn from each target's
    *original* basket restricted to it.
    """
    if m < 1:
        raise DatasetError("m must be at least 1")
    check_aligned(original, anonymized)
    attribute, ordered_items = item_attack_inputs(original, attribute, universe)
    return finalize_sizes(
        "item",
        *_item_sizes_kernel(
            original, anonymized, m, attribute, ordered_items, hierarchy, knowledge_cap
        ),
    )


# -- combined RT attack --------------------------------------------------------
def _rt_sizes_kernel(
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
    """QI matching bitsets intersected with per-combination item candidates."""
    n_records = len(anonymized)
    tables = _qi_cover_tables(original, anonymized, attributes, coverages)
    interpreter = interpreter_for(hierarchy, set(ordered_items))
    candidates = candidate_matrix(anonymized, attribute, interpreter, ordered_items)
    token_of = {item: token for token, item in enumerate(ordered_items)}
    combo_bits: dict[tuple[str, ...], np.ndarray] = {}

    def bits_of(combo: tuple[str, ...]) -> np.ndarray:
        bits = combo_bits.get(combo)
        if bits is None:
            rows = np.fromiter(
                (token_of[item] for item in combo), dtype=np.int64, count=len(combo)
            )
            bits = intersect_rows(candidates, rows)
            combo_bits[combo] = bits
        return bits

    sizes: list[int] = []
    knowledge: dict[int, tuple[str, ...]] = {}
    truncated = False
    for start in range(0, n_records, CHUNK_RECORDS):
        stop = min(n_records, start + CHUNK_RECORDS)
        first_cover, first_codes = tables[0]
        accumulator = first_cover[first_codes[start:stop]]
        for cover, codes in tables[1:]:
            accumulator &= cover[codes[start:stop]]
        for index in range(start, stop):
            qi_bits = accumulator[index - start]
            basket = frozenset(
                str(item)
                for item in original[index][attribute]
                if str(item) in token_of
            )
            best, witness, hit_cap = best_knowledge(
                basket,
                m,
                lambda combo: popcount(qi_bits & bits_of(combo)),
                cap=knowledge_cap,
                initial=popcount(qi_bits),
            )
            sizes.append(best)
            if witness is not None:
                knowledge[index] = witness
            truncated = truncated or hit_cap
    return sizes, knowledge, truncated


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
    """Simulate the combined QI + m-item adversary of the (k, k^m) model.

    The adversary's matching set for a target is the QI matching set
    intersected with the candidates of its best item combination; with no
    useful item knowledge the QI matching set itself is the attack.
    """
    if m < 1:
        raise DatasetError("m must be at least 1")
    check_aligned(original, anonymized)
    attributes = resolve_qi_attributes(original, relational_attributes)
    coverages = qi_coverages(original, attributes, hierarchies)
    attribute, ordered_items = item_attack_inputs(
        original, transaction_attribute, universe
    )
    return finalize_sizes(
        "rt",
        *_rt_sizes_kernel(
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


def simulate_attacks(
    original: Dataset,
    anonymized: Dataset,
    m: int = 2,
    relational_attributes: Sequence[str] | None = None,
    transaction_attribute: str | None = None,
    hierarchies: dict[str, Hierarchy] | None = None,
    item_hierarchy: Hierarchy | None = None,
    universe: set[str] | None = None,
    knowledge_cap: int | None = None,
) -> dict[str, AttackResult]:
    """Run every attack the dataset's schema supports.

    ``"qi"`` when the original dataset has quasi-identifier relational
    attributes, ``"item"`` when it has a transaction attribute, and ``"rt"``
    when it has both.  The engine gates attacks on the *configuration*
    instead (a transaction-only anonymization leaves the relational side
    identifiable by design); this schema-driven entry point serves the
    conformance suite and ad-hoc analysis.
    """
    check_aligned(original, anonymized)
    has_relational = bool(
        relational_attributes
        if relational_attributes is not None
        else quasi_identifier_attributes(original)
    )
    transaction = transaction_attribute or (
        original.schema.transaction_names[0]
        if original.schema.transaction_names
        else None
    )
    results: dict[str, AttackResult] = {}
    if has_relational:
        results["qi"] = qi_attack(
            original,
            anonymized,
            attributes=relational_attributes,
            hierarchies=hierarchies,
        )
    if transaction is not None:
        results["item"] = item_attack(
            original,
            anonymized,
            m,
            attribute=transaction,
            hierarchy=item_hierarchy,
            universe=universe,
            knowledge_cap=knowledge_cap,
        )
    if has_relational and transaction is not None:
        results["rt"] = rt_attack(
            original,
            anonymized,
            m,
            relational_attributes=relational_attributes,
            transaction_attribute=transaction,
            hierarchies=hierarchies,
            item_hierarchy=item_hierarchy,
            universe=universe,
            knowledge_cap=knowledge_cap,
        )
    return results
