"""Query workloads: collections of COUNT queries plus their generation and I/O.

The Queries Editor of SECRETA lets the user load a workload from a file, edit
it, or have one generated.  Workloads are the input of the Average Relative
Error (ARE) utility indicator.
"""

from __future__ import annotations

import json
from pathlib import Path
from typing import Iterable, Iterator, Sequence

import numpy as np

from repro.datasets.dataset import Dataset
from repro.exceptions import QueryError
from repro.queries.query import Query, RangeCondition, ValueCondition


class QueryWorkload:
    """An ordered collection of :class:`~repro.queries.query.Query` objects."""

    def __init__(self, queries: Iterable[Query], name: str = "workload"):
        self._queries = list(queries)
        self.name = name
        self._revision = 0
        if not self._queries:
            raise QueryError("a query workload needs at least one query")

    def __len__(self) -> int:
        return len(self._queries)

    def __iter__(self) -> Iterator[Query]:
        return iter(self._queries)

    def __getitem__(self, index: int) -> Query:
        return self._queries[index]

    def __repr__(self) -> str:
        return f"QueryWorkload(name={self.name!r}, queries={len(self._queries)})"

    @property
    def queries(self) -> list[Query]:
        return list(self._queries)

    @property
    def revision(self) -> int:
        """How many times :meth:`add` and :meth:`remove` changed the queries."""
        return self._revision

    def add(self, query: Query) -> None:
        """Append a query (the Queries Editor's "insert directly" action)."""
        self._queries.append(query)
        self._revision += 1

    def remove(self, index: int) -> None:
        """Delete the query at ``index``; the last query cannot be removed.

        Draining a workload to zero queries would break the constructor
        invariant every consumer relies on (ARE divides by the workload
        size), so the Queries Editor's delete action refuses it.
        """
        try:
            self._queries[index]
        except IndexError:
            raise QueryError(f"no query at index {index}") from None
        if len(self._queries) == 1:
            raise QueryError("cannot remove the last query of a workload")
        del self._queries[index]
        self._revision += 1

    # -- serialisation ----------------------------------------------------------
    def to_dict(self) -> dict:
        return {
            "name": self.name,
            "queries": [query.to_dict() for query in self._queries],
        }

    @classmethod
    def from_dict(cls, data: dict) -> "QueryWorkload":
        queries = [Query.from_dict(entry) for entry in data.get("queries", [])]
        return cls(queries, name=data.get("name", "workload"))

    def save(self, path: str | Path) -> Path:
        path = Path(path)
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(json.dumps(self.to_dict(), indent=2), encoding="utf-8")
        return path

    @classmethod
    def load(cls, path: str | Path) -> "QueryWorkload":
        path = Path(path)
        try:
            data = json.loads(path.read_text(encoding="utf-8-sig"))
        except OSError as error:
            raise QueryError(f"cannot read workload file {path}: {error}") from error
        except UnicodeDecodeError as error:
            raise QueryError(f"workload file {path} is not UTF-8: {error}") from error
        except json.JSONDecodeError as error:
            raise QueryError(f"workload file {path} is not valid JSON: {error}") from error
        return cls.from_dict(data)


def generate_query_workload(
    dataset: Dataset,
    n_queries: int = 50,
    relational_attributes: Sequence[str] | None = None,
    n_items: int = 2,
    range_width: float = 0.25,
    seed: int = 0,
    name: str | None = None,
    rng: np.random.Generator | None = None,
) -> QueryWorkload:
    """Generate a workload of COUNT queries grounded in the data.

    Each query is seeded from a randomly drawn record so that its exact answer
    on the original data is rarely zero: numeric predicates are ranges of
    width ``range_width`` (fraction of the attribute's domain) centred on the
    record's value, categorical predicates accept the record's value, and item
    predicates require up to ``n_items`` items from the record's basket.

    A drawn record can yield no predicates at all (all chosen relational
    values ``None`` and an empty basket); such draws are redrawn, up to a
    bounded ``10 * n_queries`` total attempts, so sparse datasets still get
    full-size workloads.  Only when the attempt budget is exhausted may the
    workload come back smaller than ``n_queries`` (it is never empty — that
    raises :class:`~repro.exceptions.QueryError`).

    Pass an explicit ``numpy.random.Generator`` as ``rng`` to draw from a
    shared stream instead of the per-``seed`` one (``seed`` is then ignored).
    """
    if n_queries <= 0:
        raise QueryError("n_queries must be positive")
    if not 0 < range_width <= 1:
        raise QueryError("range_width must be in (0, 1]")
    rng = rng if rng is not None else np.random.default_rng(seed)

    if relational_attributes is None:
        relational_attributes = [
            attribute.name
            for attribute in dataset.schema.relational
            if attribute.quasi_identifier
        ]
    transaction_names = dataset.schema.transaction_names
    transaction_attribute = transaction_names[0] if transaction_names else None
    if not relational_attributes and transaction_attribute is None:
        raise QueryError("the dataset has no attributes to query")

    domains = {
        name: dataset.domain(name)
        for name in relational_attributes
    }

    queries = []
    n_records = len(dataset)
    if n_records == 0:
        raise QueryError("cannot generate queries for an empty dataset")
    attempts = 0
    max_attempts = 10 * n_queries
    while len(queries) < n_queries and attempts < max_attempts:
        attempts += 1
        record = dataset[int(rng.integers(n_records))]
        conditions = {}
        # Use one or two relational predicates per query, like the paper's
        # example workloads (selective but not degenerate).
        if relational_attributes:
            chosen = rng.choice(
                relational_attributes,
                size=min(len(relational_attributes), int(rng.integers(1, 3))),
                replace=False,
            )
            for attribute in chosen:
                value = record[attribute]
                if value is None:
                    continue
                if dataset.schema[attribute].is_numeric:
                    domain = domains[attribute]
                    width = max(1.0, (max(domain) - min(domain)) * range_width)
                    conditions[attribute] = RangeCondition(
                        low=float(value) - width / 2, high=float(value) + width / 2
                    )
                else:
                    conditions[attribute] = ValueCondition([value])
        items: list[str] = []
        if transaction_attribute is not None:
            basket = sorted(record[transaction_attribute])
            if basket:
                size = min(len(basket), max(1, int(rng.integers(1, n_items + 1))))
                items = list(rng.choice(basket, size=size, replace=False))
        if not conditions and not items:
            continue
        queries.append(
            Query(
                conditions=conditions,
                items=items,
                transaction_attribute=transaction_attribute,
            )
        )
    if not queries:
        raise QueryError("workload generation produced no queries")
    return QueryWorkload(queries, name=name or f"workload-{dataset.name}")
