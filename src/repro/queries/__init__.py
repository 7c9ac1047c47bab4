"""Query workloads and the Average Relative Error utility indicator."""

from __future__ import annotations

from repro.queries.are import (
    AreResult,
    QueryEvaluation,
    average_relative_error,
    evaluate_query,
    relative_error,
    workload_interpreters,
)
from repro.queries.query import (
    Condition,
    Query,
    RangeCondition,
    ValueCondition,
    condition_from_dict,
    estimate_workload,
)
from repro.queries.workload import QueryWorkload, generate_query_workload

__all__ = [
    "AreResult",
    "QueryEvaluation",
    "average_relative_error",
    "evaluate_query",
    "relative_error",
    "workload_interpreters",
    "Condition",
    "Query",
    "RangeCondition",
    "ValueCondition",
    "condition_from_dict",
    "estimate_workload",
    "QueryWorkload",
    "generate_query_workload",
]
