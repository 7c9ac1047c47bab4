"""Per-record reference of the ARE indicator.

:func:`average_relative_error_scan` takes
:func:`repro.queries.are.average_relative_error`'s arguments and returns its
:class:`AreResult`, but answers every query with the per-record scans
(``Query._count_scan`` / ``Query._estimate_scan``) instead of the columnar
kernels.  The tests and ``benchmarks/bench_query_are.py`` compare the two as
equal values.
"""

from __future__ import annotations

from typing import Iterable, Mapping

from repro.datasets.dataset import Dataset
from repro.datasets.domains import DatasetDomains
from repro.hierarchy.hierarchy import Hierarchy
from repro.queries.are import (
    AreResult,
    QueryEvaluation,
    relative_error,
    workload_interpreters,
)
from repro.queries.query import Query


def average_relative_error_scan(
    workload: Iterable[Query],
    original: Dataset,
    anonymized: Dataset,
    hierarchies: Mapping[str, Hierarchy] | None = None,
    floor: float = 1.0,
    *,
    domains: DatasetDomains | None = None,
    universe_mode: str = "original",
) -> AreResult:
    if universe_mode == "original":
        if domains is None:
            domains = DatasetDomains.capture(original)
    else:
        domains = None
    interpreters = workload_interpreters(hierarchies, domains)
    per_query = []
    for query in workload:
        actual = float(query._count_scan(original))
        estimate = float(
            query._estimate_scan(
                anonymized,
                hierarchies,
                interpreters,
                domains=domains,
                universe_mode=universe_mode,
            )
        )
        per_query.append(
            QueryEvaluation(
                query=query,
                actual=actual,
                estimate=estimate,
                relative_error=relative_error(actual, estimate, floor=floor),
            )
        )
    are = sum(entry.relative_error for entry in per_query) / len(per_query)
    return AreResult(are=are, per_query=tuple(per_query))
