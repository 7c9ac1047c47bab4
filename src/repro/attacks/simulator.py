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
candidate bitsets (:func:`repro.metrics.privacy_checks.candidate_matrix`) in
one flattened pass shared by the item and RT attacks: each distinct basket's
knowledge combinations are enumerated once as integer ids, each distinct
combination's candidate bitset is built once (AND-ed by size group), and
the per-target best is one ``np.minimum.reduceat`` over the supports — one
popcount per combination for the item attack, one per (target,
combination) pair, gathered in chunks against the QI rows, for the RT
attack.  The per-record scalar oracle in ``tests/oracles/attacks.py`` is
the REP003 equivalence reference.
"""

from __future__ import annotations

import itertools
from collections import defaultdict
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from repro.attacks.coverage import AttributeCoverage, coverage_for
from repro.columnar.bitset import popcount_rows, posting_matrix
from repro.datasets.dataset import Dataset
from repro.exceptions import DatasetError
from repro.hierarchy.hierarchy import Hierarchy
from repro.index import interpreter_for
from repro.metrics.privacy_checks import candidate_matrix
from repro.metrics.relational import quasi_identifier_attributes

#: Records per chunk in the matching-set AND passes: bounds the working-set
#: matrix to ``chunk × word_count(n)`` words instead of ``n × word_count(n)``.
CHUNK_RECORDS = 2048

#: (target, combination) pairs per gather in the RT attack: bounds its
#: working set to ``PAIR_CHUNK × word_count(n)`` words per AND.
PAIR_CHUNK = 1024

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


def _qi_block(
    tables: Sequence[tuple[np.ndarray, np.ndarray]], start: int, stop: int
) -> np.ndarray:
    """QI matching bitsets of records ``start..stop``: gathered covers AND-ed."""
    first_cover, first_codes = tables[0]
    accumulator = first_cover[first_codes[start:stop]]
    for cover, codes in tables[1:]:
        accumulator &= cover[codes[start:stop]]
    return accumulator


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
        sizes[start:stop] = popcount_rows(_qi_block(tables, start, stop))
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


@dataclass(frozen=True)
class _KnowledgePlan:
    """Every distinct basket's knowledge combinations, flattened to ids.

    Basket ``b``'s combinations are ``combo_ids[offsets[b]:offsets[b + 1]]``,
    in :func:`~repro.attacks.coverage.knowledge_combos` order and cut to the
    knowledge cap; ``combos[c]`` holds the item tokens (positions in the
    sorted item list) of combination id ``c``.  ``basket_of[i]`` is the
    basket of record ``i``, and ``truncated`` flags that some basket had
    more combinations than the cap.
    """

    combos: list[tuple[int, ...]]
    combo_ids: np.ndarray
    offsets: np.ndarray
    basket_of: np.ndarray
    truncated: bool


def _knowledge_plan(
    original: Dataset,
    attribute: str,
    ordered_items: Sequence[str],
    m: int,
    knowledge_cap: int | None,
) -> _KnowledgePlan:
    """Enumerate each distinct basket's combinations once, as integer ids.

    ``ordered_items`` is sorted, so combinations of ascending item tokens,
    sizes ascending, come in :func:`~repro.attacks.coverage.knowledge_combos`
    order.
    """
    token_of = {item: token for token, item in enumerate(ordered_items)}
    limit = None if knowledge_cap is None else max(knowledge_cap, 0)
    # Ids in order of first appearance, assigned without a Python-level loop.
    combo_index: defaultdict[tuple[int, ...], int] = defaultdict(
        itertools.count().__next__
    )
    basket_index: dict[frozenset, int] = {}
    basket_of: list[int] = []
    combo_ids: list[int] = []
    offsets = [0]
    truncated = False
    for itemset in original.column(attribute):
        basket = basket_index.get(itemset)
        if basket is None:
            tokens = sorted(
                map(token_of.__getitem__, token_of.keys() & set(map(str, itemset)))
            )
            combos = itertools.chain.from_iterable(
                itertools.combinations(tokens, size)
                for size in range(1, min(m, len(tokens)) + 1)
            )
            if limit is not None:
                kept = list(itertools.islice(combos, limit + 1))
                truncated = truncated or len(kept) > limit
                combos = iter(kept[:limit])
            combo_ids.extend(map(combo_index.__getitem__, combos))
            offsets.append(len(combo_ids))
            basket = basket_index[itemset] = len(basket_index)
        basket_of.append(basket)
    return _KnowledgePlan(
        combos=list(combo_index),
        combo_ids=np.array(combo_ids, dtype=np.int64),
        offsets=np.array(offsets, dtype=np.int64),
        basket_of=np.array(basket_of, dtype=np.int64),
        truncated=truncated,
    )


def _combo_bitsets(
    candidates: np.ndarray, combos: Sequence[tuple[int, ...]]
) -> np.ndarray:
    """Every combination's candidate bitset: the AND of its items' rows.

    Combinations are grouped by size, so each group is one fancy-gather per
    item position instead of one NumPy call per combination.
    """
    bits = np.empty((len(combos), candidates.shape[1]), dtype=np.uint64)
    by_size: dict[int, list[int]] = {}
    for combo_id, combo in enumerate(combos):
        by_size.setdefault(len(combo), []).append(combo_id)
    for size, ids in by_size.items():
        tokens = np.array([combos[combo_id] for combo_id in ids], dtype=np.int64)
        group = candidates[tokens[:, 0]]
        for position in range(1, size):
            group &= candidates[tokens[:, position]]
        bits[ids] = group
    return bits


def _first_minimum(
    supports: np.ndarray,
    combo_ids: np.ndarray,
    counts: np.ndarray,
    initial: np.ndarray,
) -> tuple[np.ndarray, np.ndarray]:
    """Per segment of ``supports``: the best matching set and its witness.

    ``supports`` holds consecutive segments of ``counts[s]`` supports of the
    combinations ``combo_ids``, each segment in knowledge order;
    ``initial[s]`` seeds segment ``s`` with its knowledge-free matching-set
    size (0 = no seed).  A support counts only when it is nonzero and, under
    a seed, strictly below it; the first combination reaching the smallest
    counted support is the witness.  Returns ``(best, witness)`` where
    ``witness[s]`` is a combination id, or -1 when the seed was never beaten.
    """
    best = np.maximum(initial, 0)
    witness = np.full(len(counts), -1, dtype=np.int64)
    n_pairs = len(supports)
    if n_pairs == 0:
        return best, witness
    seed = np.repeat(best, counts)
    counted = (supports > 0) & ((seed == 0) | (supports < seed))
    # Support first, position second: the segment minimum of the composite
    # key is the first combination reaching the smallest support.  Supports
    # are at most the record count, so the key stays far below 2**63.
    never = np.iinfo(np.int64).max
    keys = np.where(
        counted, supports * n_pairs + np.arange(n_pairs, dtype=np.int64), never
    )
    segments = np.flatnonzero(counts)
    starts = (np.cumsum(counts) - counts)[segments]
    minima = np.minimum.reduceat(keys, starts)
    beaten = minima != never
    best[segments[beaten]] = minima[beaten] // n_pairs
    witness[segments[beaten]] = combo_ids[minima[beaten] % n_pairs]
    return best, witness


def _knowledge_sizes_kernel(
    original: Dataset,
    anonymized: Dataset,
    m: int,
    attribute: str,
    ordered_items: Sequence[str],
    hierarchy: Hierarchy | None,
    knowledge_cap: int | None,
    qi_tables: Sequence[tuple[np.ndarray, np.ndarray]] | None = None,
) -> tuple[list[int], dict[int, tuple[str, ...]], bool]:
    """Per-record worst item-knowledge matching-set sizes, one flattened pass.

    Without ``qi_tables`` this is the item attack: each combination's
    support is one popcount and each distinct basket is reduced once.  With
    them it is the combined RT attack: per :data:`CHUNK_RECORDS` block of QI
    matching rows, every (target, combination) pair is AND-ed and
    popcounted, :data:`PAIR_CHUNK` pairs per gather, and each target is
    reduced with its QI matching-set size as the seed.
    """
    interpreter = interpreter_for(hierarchy, set(ordered_items))
    candidates = candidate_matrix(anonymized, attribute, interpreter, ordered_items)
    plan = _knowledge_plan(original, attribute, ordered_items, m, knowledge_cap)
    combo_bits = _combo_bitsets(candidates, plan.combos)
    if qi_tables is None:
        counts = np.diff(plan.offsets)
        best, witness = _first_minimum(
            popcount_rows(combo_bits)[plan.combo_ids],
            plan.combo_ids,
            counts,
            np.zeros_like(counts),
        )
        sizes, witness_combo = best[plan.basket_of], witness[plan.basket_of]
    else:
        n_records = len(original)
        sizes = np.empty(n_records, dtype=np.int64)
        witness_combo = np.empty(n_records, dtype=np.int64)
        for start in range(0, n_records, CHUNK_RECORDS):
            stop = min(n_records, start + CHUNK_RECORDS)
            qi_bits = _qi_block(qi_tables, start, stop)
            baskets = plan.basket_of[start:stop]
            firsts = plan.offsets[baskets]
            counts = plan.offsets[baskets + 1] - firsts
            ends = np.cumsum(counts)
            n_pairs = int(ends[-1])
            # Each target's slice of combo_ids, the slices concatenated.
            pair_target = np.repeat(np.arange(stop - start), counts)
            pair_combo = plan.combo_ids[
                np.repeat(firsts - (ends - counts), counts)
                + np.arange(n_pairs, dtype=np.int64)
            ]
            supports = np.empty(n_pairs, dtype=np.int64)
            for first in range(0, n_pairs, PAIR_CHUNK):
                last = min(n_pairs, first + PAIR_CHUNK)
                supports[first:last] = popcount_rows(
                    qi_bits[pair_target[first:last]]
                    & combo_bits[pair_combo[first:last]]
                )
            best, witness = _first_minimum(
                supports, pair_combo, counts, popcount_rows(qi_bits)
            )
            sizes[start:stop] = best
            witness_combo[start:stop] = witness
    names = [tuple(ordered_items[token] for token in combo) for combo in plan.combos]
    knowledge = {
        int(index): names[witness_combo[index]]
        for index in np.flatnonzero(witness_combo >= 0)
    }
    return sizes.tolist(), knowledge, plan.truncated


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
        *_knowledge_sizes_kernel(
            original, anonymized, m, attribute, ordered_items, hierarchy, knowledge_cap
        ),
    )


# -- combined RT attack --------------------------------------------------------
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
        *_knowledge_sizes_kernel(
            original,
            anonymized,
            m,
            attribute,
            ordered_items,
            item_hierarchy,
            knowledge_cap,
            _qi_cover_tables(original, anonymized, attributes, coverages),
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
