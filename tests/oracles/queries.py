"""Per-record references of the COUNT queries and the ARE indicator.

:func:`count_scan` and :func:`estimate_scan` take the arguments of
:meth:`repro.queries.Query.count` / :meth:`~repro.queries.Query.estimate`
(the query first) and answer the query one record at a time, as the query
layer did before its columnar kernels.  :func:`average_relative_error_scan`
takes :func:`repro.queries.average_relative_error`'s arguments and returns
its :class:`AreResult`, built on the scans.  The tests and
``benchmarks/bench_query_are.py`` compare kernels and scans as equal values.

:func:`are_without_domains` is the ARE with every label resolved against its
hierarchy alone: the workload's :func:`~repro.queries.evaluate_query` calls
(or, with ``scan=True``, the scans) without a domains snapshot.
"""

from __future__ import annotations

from typing import Iterable, Mapping

from repro.datasets.dataset import Dataset, Record
from repro.datasets.domains import DatasetDomains
from repro.hierarchy.hierarchy import Hierarchy
from repro.index import LabelInterpreter, interpreter_for
from repro.queries.are import (
    AreResult,
    QueryEvaluation,
    evaluate_query,
    relative_error,
    workload_interpreters,
)
from repro.queries.query import Query


def _item_attribute(query: Query, dataset: Dataset) -> str | None:
    if query.transaction_attribute is not None:
        return query.transaction_attribute
    names = dataset.schema.transaction_names
    return names[0] if names else None


def matches_exactly(query: Query, record: Record, transaction_attribute: str | None) -> bool:
    """Whether one original record satisfies every predicate of ``query``."""
    for attribute, condition in query.conditions.items():
        if condition.match_probability(record[attribute]) < 1.0:
            return False
    return not query.items or query.items <= record[transaction_attribute]


def count_scan(query: Query, dataset: Dataset) -> int:
    """Per-record reference of :meth:`Query.count`."""
    transaction_attribute = _item_attribute(query, dataset)
    return sum(
        1 for record in dataset if matches_exactly(query, record, transaction_attribute)
    )


def itemset_probability(
    query: Query, itemset: frozenset, interpreter: LabelInterpreter
) -> float:
    """Probability that a published itemset stands for all of ``query.items``."""
    probability = 1.0
    # Sorted, not set order: a product of three or more factors depends
    # on its order, and set order follows the interpreter's hash seed.
    for item in sorted(query.items):
        if item in itemset:
            continue
        best = 0.0
        for generalized in itemset:
            leaves = interpreter.restricted_leaves(generalized)
            if item in leaves:
                best = max(best, 1.0 / len(leaves))
        probability *= best
        if probability == 0.0:
            return 0.0
    return probability


def estimate_scan(
    query: Query,
    dataset: Dataset,
    hierarchies: Mapping[str, Hierarchy] | None = None,
    interpreters: Mapping[str, LabelInterpreter] | None = None,
    *,
    domains: DatasetDomains | None = None,
) -> float:
    """Per-record reference of :meth:`Query.estimate`."""
    hierarchies = hierarchies or {}
    interpreters = dict(interpreters or {})
    transaction_attribute = _item_attribute(query, dataset)
    for attribute in (*query.conditions, transaction_attribute):
        if attribute is not None and attribute not in interpreters:
            interpreters[attribute] = interpreter_for(
                hierarchies.get(attribute),
                domains.universe_for(attribute) if domains is not None else None,
            )
    total = 0.0
    for record in dataset:
        probability = 1.0
        for attribute, condition in query.conditions.items():
            probability *= condition.match_probability(
                record[attribute], hierarchies.get(attribute), interpreters[attribute]
            )
            if probability == 0.0:
                break
        if probability and query.items:
            probability *= itemset_probability(
                query, record[transaction_attribute], interpreters[transaction_attribute]
            )
        total += probability
    return total


def _scan_evaluation(query, original, anonymized, hierarchies, interpreters, domains, floor):
    actual = float(count_scan(query, original))
    estimate = float(
        estimate_scan(query, anonymized, hierarchies, interpreters, domains=domains)
    )
    return QueryEvaluation(
        query=query,
        actual=actual,
        estimate=estimate,
        relative_error=relative_error(actual, estimate, floor=floor),
    )


def _result(per_query: list[QueryEvaluation]) -> AreResult:
    are = sum(entry.relative_error for entry in per_query) / len(per_query)
    return AreResult(are=are, per_query=tuple(per_query))


def average_relative_error_scan(
    workload: Iterable[Query],
    original: Dataset,
    anonymized: Dataset,
    hierarchies: Mapping[str, Hierarchy] | None = None,
    floor: float = 1.0,
    *,
    domains: DatasetDomains | None = None,
) -> AreResult:
    if domains is None:
        domains = DatasetDomains.capture(original)
    interpreters = workload_interpreters(hierarchies, domains)
    return _result(
        [
            _scan_evaluation(
                query, original, anonymized, hierarchies, interpreters, domains, floor
            )
            for query in workload
        ]
    )


def are_without_domains(
    workload: Iterable[Query],
    original: Dataset,
    anonymized: Dataset,
    hierarchies: Mapping[str, Hierarchy] | None = None,
    floor: float = 1.0,
    *,
    scan: bool = False,
) -> AreResult:
    if scan:
        interpreters = workload_interpreters(hierarchies)
        per_query = [
            _scan_evaluation(
                query, original, anonymized, hierarchies, interpreters, None, floor
            )
            for query in workload
        ]
    else:
        per_query = [
            evaluate_query(query, original, anonymized, hierarchies, floor)
            for query in workload
        ]
    return _result(per_query)
