"""Information-loss metrics for transaction (set-valued) attributes.

The measures mirror the evaluation of the transaction-anonymization papers
SECRETA integrates:

* **Utility Loss (UL)** — every generalized item is charged by the fraction of
  the item universe it may stand for, and every suppressed item by 1; the
  charges are summed over all records and normalised by the total number of
  items in the original data.  0 means intact, 1 means everything was
  suppressed or generalized to the root.
* **Suppression ratio** — fraction of original item occurrences that no longer
  appear (not even under a generalized item) in the anonymized data.
* **Item frequency error** — the average relative error of per-item supports
  estimated from the anonymized data (the series plotted in the Evaluation
  screen, Figure 3(d)).

All measures run on the shared interpretation index
(:mod:`repro.index`): label resolution and the per-label aggregates are
memoized per (hierarchy, universe) pair instead of being re-derived per
record per label.  The per-record accumulation itself runs on the columnar
layer (:mod:`repro.columnar`): charges are resolved once per *distinct
anonymized label* into a ``(label, original item)`` charge matrix, and the
per-occurrence "cheapest covering label" reduction becomes one vectorized
``minimum.reduceat`` over record-wise (occurrence, label) pairs.
"""

from __future__ import annotations

from typing import Mapping, Sequence

import numpy as np

from repro.datasets.dataset import Dataset
from repro.datasets.statistics import value_frequencies
from repro.exceptions import DatasetError
from repro.hierarchy.hierarchy import Hierarchy
from repro.index import LabelInterpreter, generalization_cost, interpreter_for
from repro.metrics.interpretation import label_leaves

#: Guards for the vectorized metric path.  The dense (anonymized label ×
#: original item) charge matrix and the expanded (occurrence, label) pair
#: arrays are linear-memory wins for every realistic output, but adversarial
#: shapes (a vocabulary of millions, records holding thousands of labels)
#: could blow them up — past these bounds the metrics fall back to the exact
#: per-record interpreter loop.
_MAX_CHARGE_MATRIX_CELLS = 8_000_000
_MAX_OCCURRENCE_PAIRS = 16_000_000


def _require_universe(interpreter: LabelInterpreter) -> None:
    """Reject interpreters built without an item universe.

    A universe-less interpreter resolves the root to nothing and charges every
    label 0, silently understating loss — the failure mode the root-label
    bugfix removed.  Fail loudly instead.
    """
    if interpreter.universe is None:
        raise DatasetError(
            "the supplied interpreter was built without an item universe; "
            "use interpreter_for(hierarchy, original.item_universe(attribute))"
        )


def item_generalization_cost(
    label: str,
    universe_size: int,
    hierarchy: Hierarchy | None = None,
    universe: set[str] | None = None,
) -> float:
    """Cost of publishing ``label`` instead of an original item.

    An original item costs 0, a generalized item ``(a,b,c)`` costs
    ``(3 - 1) / (|I| - 1)``, and the root (all items) costs 1.  The root
    label ``*`` can only be resolved through a ``hierarchy`` or the item
    ``universe``; on the hierarchy-free COAT/PCTA path callers must pass
    ``universe`` or the root resolves to nothing and is charged 0 (the
    pre-fix behavior, kept only for the legacy no-universe signature).
    """
    size = len(label_leaves(str(label), hierarchy, universe=universe))
    return generalization_cost(size, universe_size)


def _occurrence_charge_sum(
    original: Dataset,
    anonymized: Dataset,
    attribute: str,
    charge_for_label,
) -> tuple[float, int] | None:
    """Sum, over original item occurrences, the cheapest covering-label charge.

    ``charge_for_label(label)`` maps one distinct anonymized label to
    ``(covered original items, charge)``.  An occurrence of original item
    ``i`` in record ``r`` is charged ``min(1, min over labels of r covering
    i)`` — 1 when no label covers it.  The reduction is vectorized: a dense
    ``(anonymized label, original item)`` charge matrix (uncovered = +inf), a
    record-wise (occurrence, label) pair expansion, and one
    ``minimum.reduceat`` per-occurrence segment reduction.

    Returns ``(sum, occurrences)``, or ``None`` when the matrix/pair guards
    trip and the caller must take its exact per-record fallback.
    """
    source = original.columnar(attribute)
    total_items = source.total_items
    if total_items == 0:
        return 0.0, 0
    target = anonymized.columnar(attribute)
    label_vocabulary = target.vocabulary
    item_vocabulary = source.vocabulary
    if len(label_vocabulary) * max(len(item_vocabulary), 1) > _MAX_CHARGE_MATRIX_CELLS:
        return None
    if int((source.row_lengths() * target.row_lengths()).sum()) > _MAX_OCCURRENCE_PAIRS:
        return None

    matrix = np.full((len(label_vocabulary), len(item_vocabulary)), np.inf)
    for token, label in enumerate(label_vocabulary.items):
        covered, charge = charge_for_label(label)
        tokens = item_vocabulary.tokens_for(covered)
        if tokens.size:
            matrix[token, tokens] = charge

    # The (occurrence, label) pair expansion is a pure function of the two
    # CSR layouts; the join is cached on the anonymized column.  Occurrences
    # whose record lost every label are uncovered: charge 1 each.
    flat, segment_starts, unpaired = target.occurrence_join(source)
    value = float(unpaired)
    if flat.size:
        cheapest = np.minimum.reduceat(matrix.ravel()[flat], segment_starts)
        value += float(np.minimum(cheapest, 1.0).sum())
    return value, total_items


def utility_loss(
    original: Dataset,
    anonymized: Dataset,
    attribute: str | None = None,
    hierarchy: Hierarchy | None = None,
    interpreter: LabelInterpreter | None = None,
) -> float:
    """UL of an anonymized transaction attribute (0 intact .. 1 destroyed).

    ``interpreter`` may be supplied to share one label cache across many
    metric calls; it must have been built for ``hierarchy`` and the original
    dataset's item universe (as :func:`repro.index.interpreter_for` does).
    """
    attribute = attribute or original.single_transaction_attribute()
    if len(original) != len(anonymized):
        raise DatasetError(
            "utility_loss expects aligned datasets "
            f"({len(original)} vs {len(anonymized)} records)"
        )
    if interpreter is None:
        original.columnar(attribute)  # let item_universe reuse the vocabulary
        interpreter = interpreter_for(hierarchy, original.item_universe(attribute))
    else:
        _require_universe(interpreter)

    def label_cost(label: str):
        # A label covers its restricted leaves at the (clamped) publication
        # cost; the reduction picks the most specific covering label and
        # charges vanished items 1 — exactly interpreter.best_costs.
        return interpreter.restricted_leaves(label), min(1.0, interpreter.cost(label))

    charged = _occurrence_charge_sum(original, anonymized, attribute, label_cost)
    if charged is not None:
        loss, total_items = charged
        return loss / total_items if total_items else 0.0
    # Per-record fallback for adversarial shapes (see the guards).
    return itemset_utility_loss(
        original.column(attribute),
        anonymized.column(attribute),
        interpreter=interpreter,
    )


def itemset_utility_loss(
    original: Sequence[frozenset[str]],
    published: Sequence[frozenset[str]],
    hierarchy: Hierarchy | None = None,
    interpreter: LabelInterpreter | None = None,
) -> float:
    """UL of publishing ``published[r]`` for each original itemset ``original[r]``.

    The record-by-record form of :func:`utility_loss`, for callers that hold
    itemsets rather than datasets (an RT cluster).  Labels are interpreted
    against the universe of ``original`` unless an ``interpreter`` is given.
    The result is bit-identical to the vectorized path: occurrences of a
    record left with no label count 1 each, the others are charged in sorted
    item order (the column's token order) and summed by NumPy's pairwise
    ``sum``, exactly as :func:`_occurrence_charge_sum` reduces them.
    """
    if len(original) != len(published):
        raise DatasetError(
            "itemset_utility_loss expects aligned itemsets "
            f"({len(original)} vs {len(published)} records)"
        )
    if interpreter is None:
        interpreter = interpreter_for(hierarchy, set().union(*original))
    else:
        _require_universe(interpreter)
    unpaired = 0
    charges: list[float] = []
    for items, labels in zip(original, published):
        if not labels:
            unpaired += len(items)
            continue
        best_costs = interpreter.best_costs(labels)
        charges.extend(best_costs.get(item, 1.0) for item in sorted(items))
    occurrences = unpaired + len(charges)
    if not occurrences:
        return 0.0
    return (float(unpaired) + float(np.array(charges).sum())) / occurrences


def suppression_ratio(
    original: Dataset,
    anonymized: Dataset,
    attribute: str | None = None,
    hierarchy: Hierarchy | None = None,
    interpreter: LabelInterpreter | None = None,
) -> float:
    """Fraction of original item occurrences that vanished from the output."""
    attribute = attribute or original.single_transaction_attribute()
    if len(original) != len(anonymized):
        raise DatasetError("suppression_ratio expects aligned datasets")
    if interpreter is None:
        original.columnar(attribute)  # let item_universe reuse the vocabulary
        interpreter = interpreter_for(hierarchy, original.item_universe(attribute))
    else:
        _require_universe(interpreter)

    def label_coverage(label: str):
        # Covered occurrences cost 0, vanished ones fall through to the
        # reduction's uncovered default of 1 — counting suppressions.
        return interpreter.restricted_leaves(label), 0.0

    charged = _occurrence_charge_sum(original, anonymized, attribute, label_coverage)
    if charged is not None:
        suppressed, total = charged
        return suppressed / total if total else 0.0
    total = 0
    suppressed = 0
    for original_record, anonymized_record in zip(original, anonymized):
        covered = interpreter.covered_items(anonymized_record[attribute])
        for item in original_record[attribute]:
            total += 1
            if item not in covered:
                suppressed += 1
    return suppressed / total if total else 0.0


def estimated_item_frequencies(
    anonymized: Dataset,
    universe: set[str],
    attribute: str | None = None,
    hierarchy: Hierarchy | None = None,
    interpreter: LabelInterpreter | None = None,
) -> dict[str, float]:
    """Expected support of each original item, estimated from anonymized data.

    A record containing the generalized item ``g`` contributes ``1/|leaves(g)|``
    to every original item ``g`` may stand for (uniformity assumption).  The
    estimate decomposes per distinct label: each label contributes its record
    count (one CSR ``bincount``) times its per-leaf weight.
    """
    attribute = attribute or anonymized.single_transaction_attribute()
    if interpreter is None:
        interpreter = interpreter_for(hierarchy, universe)
    else:
        _require_universe(interpreter)
    estimates = {item: 0.0 for item in universe}
    column = anonymized.columnar(attribute)
    occurrences = np.bincount(
        column.tokens, minlength=len(column.vocabulary)
    )
    for token, label in enumerate(column.vocabulary.items):
        count = int(occurrences[token])
        if count == 0:
            continue
        leaves = interpreter.restricted_leaves(label)
        if not leaves:
            continue
        weight = count / len(leaves)
        for item in leaves:
            # The interpreter works on stringified items (dataset items are
            # always strings); weights whose keys don't appear in the caller's
            # universe are dropped, so an out-of-contract non-string universe
            # yields all-zero estimates instead of a KeyError.
            if item in estimates:
                estimates[item] += weight
    return estimates


def item_frequency_error(
    original: Dataset,
    anonymized: Dataset,
    attribute: str | None = None,
    hierarchy: Hierarchy | None = None,
    floor: float = 1.0,
) -> dict[str, float]:
    """Per-item relative error between original and estimated supports."""
    attribute = attribute or original.single_transaction_attribute()
    universe = original.item_universe(attribute)
    actual = value_frequencies(original, attribute)
    estimated = estimated_item_frequencies(
        anonymized, universe, attribute=attribute, hierarchy=hierarchy
    )
    return {
        item: abs(estimated.get(item, 0.0) - actual.get(item, 0))
        / max(actual.get(item, 0), floor)
        for item in sorted(universe)
    }


def average_item_frequency_error(
    original: Dataset,
    anonymized: Dataset,
    attribute: str | None = None,
    hierarchy: Hierarchy | None = None,
    floor: float = 1.0,
) -> float:
    """Mean of :func:`item_frequency_error` over the item universe."""
    return mean_item_frequency_error(
        item_frequency_error(
            original, anonymized, attribute=attribute, hierarchy=hierarchy, floor=floor
        )
    )


def mean_item_frequency_error(errors: Mapping[str, float]) -> float:
    """Mean of per-item errors from :func:`item_frequency_error` (0 for none)."""
    return sum(errors.values()) / len(errors) if errors else 0.0
