"""Average Relative Error (ARE).

ARE (Xu et al., KDD 2006) is SECRETA's "de facto utility indicator": it
measures how accurately a query workload can be answered on the anonymized
data.  For each query the exact count on the original dataset is compared to
the estimate obtained from the anonymized dataset, and the relative errors are
averaged::

    ARE = (1/|W|) * sum_q |estimate_q - actual_q| / max(actual_q, floor)

The ``floor`` (called a *sanity bound* in the literature) avoids dividing by
zero for queries with no matching records.

Estimates resolve generalized labels against the original dataset's
attribute domains (``docs/queries.md``): :func:`average_relative_error`
captures a :class:`~repro.datasets.domains.DatasetDomains` snapshot when the
caller does not thread a prepared one, so root-generalized records contribute
leaf-uniform probabilities consistent with the utility-loss charging rule.
:func:`evaluate_query` without a snapshot resolves labels against their
hierarchies alone.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Mapping

from repro.datasets.dataset import Dataset
from repro.datasets.domains import DatasetDomains
from repro.exceptions import QueryError
from repro.hierarchy.hierarchy import Hierarchy
from repro.index import LabelInterpreter, interpreter_for
from repro.queries.query import Query, estimate_workload
from repro.queries.workload import QueryWorkload


@dataclass(frozen=True)
class QueryEvaluation:
    """Per-query evaluation record (actual count, estimate, relative error)."""

    query: Query
    actual: float
    estimate: float
    relative_error: float


@dataclass(frozen=True)
class AreResult:
    """The outcome of evaluating a workload on original vs. anonymized data."""

    are: float
    per_query: tuple[QueryEvaluation, ...]

    @property
    def worst_query(self) -> QueryEvaluation | None:
        if not self.per_query:
            return None
        return max(self.per_query, key=lambda entry: entry.relative_error)

    def summary(self) -> dict:
        return {
            "are": self.are,
            "queries": len(self.per_query),
            "max_relative_error": max(
                (entry.relative_error for entry in self.per_query), default=0.0
            ),
        }


def relative_error(actual: float, estimate: float, floor: float = 1.0) -> float:
    """Relative error of one estimate with a sanity floor on the denominator."""
    if floor <= 0:
        raise QueryError("the sanity floor must be positive")
    return abs(estimate - actual) / max(actual, floor)


def evaluate_query(
    query: Query,
    original: Dataset,
    anonymized: Dataset,
    hierarchies: Mapping[str, Hierarchy] | None = None,
    floor: float = 1.0,
    interpreters: Mapping[str, LabelInterpreter] | None = None,
    *,
    domains: DatasetDomains | None = None,
) -> QueryEvaluation:
    """Evaluate one query on the original and the anonymized dataset.

    ``domains`` is passed on to :meth:`Query.estimate`: without a snapshot
    the estimate resolves labels against the hierarchies alone.
    """
    actual = float(query.count(original))
    estimate = float(
        query.estimate(
            anonymized,
            hierarchies=hierarchies,
            interpreters=interpreters,
            domains=domains,
        )
    )
    return QueryEvaluation(
        query=query,
        actual=actual,
        estimate=estimate,
        relative_error=relative_error(actual, estimate, floor=floor),
    )


def workload_interpreters(
    hierarchies: Mapping[str, Hierarchy] | None,
    domains: DatasetDomains | None = None,
) -> dict[str, LabelInterpreter]:
    """One shared label interpreter per hierarchy- or domain-backed attribute.

    Built once per workload evaluation so every query of the workload resolves
    generalized labels through the same memoized index instead of re-walking
    hierarchies per record per query.  With a ``domains`` snapshot each
    interpreter is keyed by its attribute's original domain; without one the
    interpreters resolve against the hierarchies alone.
    """
    hierarchies = dict(hierarchies or {})
    attributes = set(hierarchies)
    if domains is not None:
        attributes |= set(domains.relational) | set(domains.items)
    return {
        attribute: interpreter_for(
            hierarchies.get(attribute),
            domains.universe_for(attribute) if domains is not None else None,
        )
        for attribute in attributes
    }


def average_relative_error(
    workload: QueryWorkload | Iterable[Query],
    original: Dataset,
    anonymized: Dataset,
    hierarchies: Mapping[str, Hierarchy] | None = None,
    floor: float = 1.0,
    *,
    domains: DatasetDomains | None = None,
) -> AreResult:
    """Evaluate a whole workload and return the ARE with per-query detail.

    Each query is counted on ``original`` (:meth:`Query.count`), and the
    whole workload is estimated on ``anonymized`` in one batched pass
    (:func:`~repro.queries.query.estimate_workload`), which shares one match
    table per distinct condition and one item-match matrix among the queries.
    Every estimate equals the query's own :meth:`Query.estimate` bit for bit.

    ``domains`` threads a prepared snapshot of the original dataset's
    attribute domains (the engine captures one in its experiment resources);
    when omitted it is captured from ``original`` directly, so the
    universe-aware semantics never depend on the caller remembering to pass
    it.
    """
    if workload is None:
        raise QueryError("average_relative_error needs a query workload, got None")
    queries = list(workload)
    if not queries:
        raise QueryError("cannot compute the ARE of an empty query workload")
    if domains is None:
        domains = DatasetDomains.capture(original)
    actuals = [float(query.count(original)) for query in queries]
    estimates = estimate_workload(
        queries,
        anonymized,
        hierarchies,
        workload_interpreters(hierarchies, domains),
        domains=domains,
    )
    per_query = tuple(
        QueryEvaluation(
            query=query,
            actual=actual,
            estimate=estimate,
            relative_error=relative_error(actual, estimate, floor=floor),
        )
        for query, actual, estimate in zip(queries, actuals, estimates)
    )
    are = sum(entry.relative_error for entry in per_query) / len(per_query)
    return AreResult(are=are, per_query=per_query)
