"""COUNT queries over RT-datasets.

SECRETA evaluates data utility "in query answering" with the query type of
Xu et al. (KDD 2006): COUNT queries that combine range or equality predicates
on relational attributes with containment predicates on the transaction
attribute, e.g. *"how many customers aged 25–35 with a Bachelors degree bought
bread and milk?"*.

A query can be answered exactly on the original dataset
(:meth:`Query.count`) and only estimated on an anonymized dataset
(:meth:`Query.estimate`): a generalized value may or may not stand for a
matching original value, so each record contributes the probability that it
matches, under the standard uniformity assumption.

Generalized labels resolve by one rule (see ``docs/queries.md``).  With a
:class:`~repro.datasets.domains.DatasetDomains` snapshot of the *original*
dataset, each attribute's interpreter is keyed by its original domain, so
``*`` and hierarchy-free group labels get leaf-uniform match probabilities
consistent with the utility-loss charging rule.  Without a snapshot a label
resolves against its hierarchy alone: the hierarchy-free root ``*`` then
stands for nothing and a root-generalized record contributes probability 0.

Both :meth:`Query.count` and :meth:`Query.estimate` run on the columnar
kernel layer (per-distinct-label probability tables gathered through
:meth:`Dataset.columnar` code arrays, AND+popcount over posting bitsets).
A predicate on a set-valued attribute, or items asked of a single-valued
one, is malformed and raises :class:`~repro.exceptions.QueryError`.  The
per-record scans the kernels are pinned against are test references
(``tests/oracles/queries.py``).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Iterable, Mapping

import numpy as np

from repro.columnar import (
    CategoricalColumn,
    TransactionColumn,
    intersect_rows,
    mask_to_bitset,
    popcount,
    row_maxima,
    sequential_sum,
)
from repro.datasets.dataset import Dataset
from repro.datasets.domains import DatasetDomains
from repro.exceptions import QueryError
from repro.hierarchy.hierarchy import Hierarchy
from repro.index import LabelInterpreter, interpreter_for

@dataclass(frozen=True)
class RangeCondition:
    """A numeric predicate ``low <= value <= high``."""

    low: float
    high: float

    def __post_init__(self) -> None:
        if self.low > self.high:
            raise QueryError(f"empty range [{self.low}, {self.high}]")

    def match_probability(
        self,
        value: Any,
        hierarchy: Hierarchy | None = None,
        interpreter: LabelInterpreter | None = None,
    ) -> float:
        """Probability that a (possibly generalized) value satisfies the range.

        Interval labels contribute their overlap fraction.  A label with no
        numeric span resolves through the interpreter's restricted leaf sets
        when the interpreter carries a universe (a domains snapshot was
        given): the hierarchy-free root ``*`` then matches with the fraction
        of the attribute's original values inside the range instead of 0.  A
        universe-less interpreter (no snapshot, and exact counting) keeps the
        span-only semantics.
        """
        if value is None:
            return 0.0
        if isinstance(value, (int, float)):
            return 1.0 if self.low <= value <= self.high else 0.0
        if interpreter is None:
            interpreter = interpreter_for(hierarchy)
        span = interpreter.span(value)
        if span is None:
            if interpreter.universe is None:
                return 0.0
            return self._leaf_fraction(interpreter.restricted_leaves(value))
        low, high = span
        if high < self.low or low > self.high:
            return 0.0
        if high == low:
            return 1.0
        overlap = min(high, self.high) - max(low, self.low)
        return max(0.0, min(1.0, overlap / (high - low)))

    def _leaf_fraction(self, leaves: frozenset[str]) -> float:
        """Fraction of a label's (stringified) leaf values inside the range."""
        if not leaves:
            return 0.0
        matching = 0
        for leaf in leaves:
            try:
                number = float(leaf)
            except (TypeError, ValueError):
                continue
            if self.low <= number <= self.high:
                matching += 1
        return matching / len(leaves)

    def to_dict(self) -> dict:
        return {"type": "range", "low": self.low, "high": self.high}


@dataclass(frozen=True)
class ValueCondition:
    """A categorical predicate ``value IN accepted``."""

    accepted: frozenset[str]

    def __init__(self, accepted: Iterable[str]):
        object.__setattr__(
            self, "accepted", frozenset(str(value) for value in accepted)
        )
        if not self.accepted:
            raise QueryError("a value condition needs at least one accepted value")

    def match_probability(
        self,
        value: Any,
        hierarchy: Hierarchy | None = None,
        interpreter: LabelInterpreter | None = None,
    ) -> float:
        """Probability that a (possibly generalized) value is an accepted one.

        Labels resolve through the interpreter's *restricted* leaf sets: an
        interpreter keyed by the original dataset's attribute domain counts
        only values the data actually contains, so the generic root ``*``
        matches with leaf-uniform probability instead of 0.  A universe-less
        interpreter restricts to nothing and keeps the hierarchy-only
        semantics.
        """
        if value is None:
            return 0.0
        value = str(value)
        if value in self.accepted:
            return 1.0
        if interpreter is None:
            interpreter = interpreter_for(hierarchy)
        leaves = interpreter.restricted_leaves(value)
        if not leaves:
            return 0.0
        matching = len(leaves & self.accepted)
        if matching == 0:
            return 0.0
        return matching / len(leaves)

    def to_dict(self) -> dict:
        return {"type": "values", "accepted": sorted(self.accepted)}


Condition = RangeCondition | ValueCondition


def condition_from_dict(data: Mapping) -> Condition:
    """Inverse of ``Condition.to_dict`` (used by the workload file format)."""
    kind = data.get("type")
    if kind == "range":
        return RangeCondition(float(data["low"]), float(data["high"]))
    if kind == "values":
        return ValueCondition(data["accepted"])
    raise QueryError(f"unknown condition type {kind!r}")


@dataclass(frozen=True)
class Query:
    """A COUNT query over relational predicates and required items."""

    conditions: Mapping[str, Condition] = field(default_factory=dict)
    items: frozenset[str] = field(default_factory=frozenset)
    transaction_attribute: str | None = None

    def __init__(
        self,
        conditions: Mapping[str, Condition] | None = None,
        items: Iterable[str] = (),
        transaction_attribute: str | None = None,
    ):
        object.__setattr__(self, "conditions", dict(conditions or {}))
        object.__setattr__(self, "items", frozenset(str(item) for item in items))
        object.__setattr__(self, "transaction_attribute", transaction_attribute)
        if not self.conditions and not self.items:
            raise QueryError("a query needs at least one predicate")

    # -- exact evaluation -------------------------------------------------------
    def count(self, dataset: Dataset) -> int:
        """Exact number of matching records (for original, truthful data).

        Per-distinct-value match tables are gathered over the relational code
        arrays, and the required items' posting bitsets are ANDed and
        popcounted.
        """
        transaction_attribute = self._item_attribute(dataset)
        mask: np.ndarray | None = None
        # Original cells resolve against no hierarchy and no universe.
        exact = interpreter_for(None)
        for attribute, condition in self.conditions.items():
            matches = match_gather(dataset.columnar(attribute), condition, exact) >= 1.0
            mask = matches if mask is None else mask & matches
        if not self.items:
            return len(dataset) if mask is None else int(np.count_nonzero(mask))
        column = dataset.columnar(transaction_attribute)
        tokens = [column.vocabulary.token(item) for item in self.items]
        if any(token is None for token in tokens):
            return 0  # an item absent from the data matches no record
        bits = intersect_rows(column.bitset_postings(), tokens)
        if mask is not None:
            bits = bits & mask_to_bitset(mask)
        return popcount(bits)

    # -- probabilistic evaluation -------------------------------------------------
    def estimate(
        self,
        dataset: Dataset,
        hierarchies: Mapping[str, Hierarchy] | None = None,
        interpreters: Mapping[str, LabelInterpreter] | None = None,
        *,
        domains: DatasetDomains | None = None,
    ) -> float:
        """Expected number of matching records in an anonymized dataset.

        Every record contributes the product of the per-predicate match
        probabilities (independence + uniformity assumptions, as in the
        query-answering evaluations of the anonymization literature).
        ``interpreters`` maps attribute names to pre-built label interpreters;
        missing entries are resolved through the shared interpreter cache, so
        label resolution is memoized either way.

        ``domains`` is a :class:`~repro.datasets.domains.DatasetDomains`
        snapshot of the *original* dataset.  With it each missing interpreter
        is keyed by its attribute's domain, so hierarchy-free generalized
        labels (the root ``*``, COAT/PCTA item groups) resolve to
        leaf-uniform probabilities consistent with the utility-loss charging
        rule; without it labels resolve against their hierarchies alone.

        This is :func:`estimate_workload` over the one query; its result is
        bit-identical to the per-record reference
        (``tests/oracles/queries.py``).
        """
        return estimate_workload(
            [self], dataset, hierarchies, interpreters, domains=domains
        )[0]

    def _item_attribute(self, dataset: Dataset) -> str | None:
        """The attribute the required items are asked of (``None``: no items).

        Checks the query's shape against the schema first: a predicate on a
        set-valued attribute, or items asked of a single-valued one, raises
        :class:`~repro.exceptions.QueryError`.
        """
        schema = dataset.schema
        for attribute in self.conditions:
            if schema[attribute].is_transaction:
                raise QueryError(
                    f"a predicate on the set-valued attribute {attribute!r}; "
                    "ask for its items instead"
                )
        if not self.items:
            return None
        attribute = self.transaction_attribute
        if attribute is None:
            names = schema.transaction_names
            if not names:
                raise QueryError(
                    "query has item predicates but the dataset has no "
                    "transaction attribute"
                )
            return names[0]
        if not schema[attribute].is_transaction:
            raise QueryError(
                f"items asked of {attribute!r}, which is not a transaction attribute"
            )
        return attribute

    # -- serialisation --------------------------------------------------------------
    def to_dict(self) -> dict:
        return {
            "conditions": {
                attribute: condition.to_dict()
                for attribute, condition in self.conditions.items()
            },
            "items": sorted(self.items),
            "transaction_attribute": self.transaction_attribute,
        }

    @classmethod
    def from_dict(cls, data: Mapping) -> "Query":
        conditions = {
            attribute: condition_from_dict(condition)
            for attribute, condition in dict(data.get("conditions", {})).items()
        }
        return cls(
            conditions=conditions,
            items=data.get("items", ()),
            transaction_attribute=data.get("transaction_attribute"),
        )

    def describe(self) -> str:
        """Human-readable one-line description of the query."""
        parts = []
        for attribute, condition in self.conditions.items():
            if isinstance(condition, RangeCondition):
                parts.append(f"{attribute} in [{condition.low}, {condition.high}]")
            else:
                parts.append(f"{attribute} in {sorted(condition.accepted)}")
        if self.items:
            parts.append(f"items ⊇ {sorted(self.items)}")
        return "COUNT where " + " and ".join(parts)


# -- batched estimation ---------------------------------------------------------------
def match_gather(
    column: CategoricalColumn, condition: Condition, interpreter: LabelInterpreter
) -> np.ndarray:
    """Per-record match probabilities of ``condition`` over one relational column.

    The condition is resolved once per distinct cell into a table, which is
    gathered through the column's code array.
    """
    if isinstance(condition, ValueCondition):
        # String-identity codes: the condition compares ``str(value)`` and
        # sends missing cells to 0, exactly the sentinel code.
        codes, labels = column.string_codes()
        table = np.empty(len(labels) + 1, dtype=np.float64)
        for code, label in enumerate(labels):
            table[code] = condition.match_probability(label, interpreter=interpreter)
        table[len(labels)] = 0.0
        return table[codes]
    # Dictionary-key codes: cells sharing a code (25 vs 25.0) are numerically
    # equal, which a range predicate cannot tell apart.
    table = np.fromiter(
        (
            condition.match_probability(value, interpreter=interpreter)
            for value in column.values
        ),
        dtype=np.float64,
        count=len(column.values),
    )
    return np.take(table, column.codes)


def item_matches(
    column: TransactionColumn, position: Mapping[str, int], interpreter: LabelInterpreter
) -> np.ndarray:
    """Per record, the probability that its itemset stands for each queried item.

    ``position`` maps each queried item to its column of the
    ``(records, items)`` result.  One weight matrix of vocabulary × items: a
    label covering an item weighs ``1/|restricted_leaves|``, and an item's own
    token weighs 1 (literal containment matches with certainty, however the
    label resolves against the universe).  Each record takes, per item, the
    largest weight among its labels, and 0 when none covers the item.
    """
    wanted = frozenset(position)
    vocabulary = column.vocabulary
    weights = np.zeros((len(vocabulary), len(position)), dtype=np.float64)
    for token, label in enumerate(vocabulary.items):
        leaves = interpreter.restricted_leaves(label)
        if leaves:
            weight = 1.0 / len(leaves)
            for item in leaves & wanted:
                weights[token, position[item]] = weight
    for item, index in position.items():
        own = vocabulary.token(item)
        if own is not None:
            weights[own, index] = 1.0
    return row_maxima(column.indptr, column.tokens, weights)


def estimate_workload(
    queries: Iterable[Query],
    dataset: Dataset,
    hierarchies: Mapping[str, Hierarchy] | None = None,
    interpreters: Mapping[str, LabelInterpreter] | None = None,
    *,
    domains: DatasetDomains | None = None,
) -> list[float]:
    """:meth:`Query.estimate` of every query over one dataset, in one pass.

    The queries share what they have in common: one match table per distinct
    (attribute, condition), and one item-match matrix per transaction
    attribute over the distinct items queried of it (:func:`item_matches`).
    Each query then multiplies its condition gathers in its condition order,
    forms its itemset product over the item columns in sorted item order,
    multiplies that in once and sums sequentially — the per-record
    reference's exact order of operations, so every estimate is
    bit-identical to it.
    """
    queries = list(queries)
    hierarchies = hierarchies or {}
    interpreters = dict(interpreters or {})
    item_attributes = [query._item_attribute(dataset) for query in queries]
    queried_items: dict[str, set[str]] = {}
    for query, item_attribute in zip(queries, item_attributes):
        for attribute in (*query.conditions, item_attribute):
            if attribute is not None and attribute not in interpreters:
                interpreters[attribute] = interpreter_for(
                    hierarchies.get(attribute),
                    domains.universe_for(attribute) if domains is not None else None,
                )
        if query.items:
            queried_items.setdefault(item_attribute, set()).update(query.items)
    if len(dataset) == 0:
        return [0.0] * len(queries)
    item_columns: dict[str, tuple[dict[str, int], np.ndarray]] = {}
    for attribute, items in queried_items.items():
        position = {item: index for index, item in enumerate(sorted(items))}
        item_columns[attribute] = (
            position,
            item_matches(dataset.columnar(attribute), position, interpreters[attribute]),
        )
    gathers: dict[tuple[str, Condition], np.ndarray] = {}
    estimates = []
    for query, item_attribute in zip(queries, item_attributes):
        # Products start from their first factor: 1.0 * x == x exactly, so
        # this matches the reference's running products seeded with 1.0.
        probability: np.ndarray | None = None
        for attribute, condition in query.conditions.items():
            key = (attribute, condition)
            gathered = gathers.get(key)
            if gathered is None:
                gathered = gathers[key] = match_gather(
                    dataset.columnar(attribute), condition, interpreters[attribute]
                )
            probability = gathered if probability is None else probability * gathered
        if query.items:
            # The reference computes the whole itemset product first, in
            # sorted item order, and multiplies it into the record probability
            # once; float multiplication is not associative, so the order is
            # part of the result.
            position, matches = item_columns[item_attribute]
            itemset: np.ndarray | None = None
            for item in sorted(query.items):
                factor = matches[:, position[item]]
                itemset = factor if itemset is None else itemset * factor
            probability = itemset if probability is None else probability * itemset
        estimates.append(sequential_sum(probability))
    return estimates
