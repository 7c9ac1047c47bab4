"""Common infrastructure shared by all anonymization algorithms.

Every algorithm in SECRETA — relational, transaction, or an RT combination —
is exposed through the same small interface so the engine can configure,
execute, time and compare them uniformly:

* :class:`Anonymizer` — the abstract base: a named, parameterised object with
  an ``anonymize(dataset)`` method returning an :class:`AnonymizationResult`.
* :class:`AnonymizationResult` — the anonymized dataset plus bookkeeping the
  Experimentation Module plots: wall-clock runtime, per-phase runtimes and
  algorithm-specific statistics.
* :class:`PhaseTimer` — a tiny helper for recording phase runtimes (the
  Evaluation screen plots "the time needed to execute the algorithm and its
  different phases").
"""

from __future__ import annotations

import abc
import time
from dataclasses import dataclass, field
from typing import Any, Mapping, Sequence

import numpy as np

from repro.datasets.dataset import Dataset
from repro.exceptions import ConfigurationError
from repro.hierarchy.hierarchy import Hierarchy
from repro.metrics.relational import quasi_identifier_attributes


@dataclass
class AnonymizationResult:
    """The output of one anonymization run."""

    dataset: Dataset
    algorithm: str
    parameters: dict[str, Any] = field(default_factory=dict)
    runtime_seconds: float = 0.0
    phase_seconds: dict[str, float] = field(default_factory=dict)
    statistics: dict[str, Any] = field(default_factory=dict)

    def summary(self) -> dict[str, Any]:
        """A flat summary row (what the message box / results table shows)."""
        row: dict[str, Any] = {
            "algorithm": self.algorithm,
            "records": len(self.dataset),
            "runtime_seconds": round(self.runtime_seconds, 6),
        }
        row.update({f"param_{key}": value for key, value in self.parameters.items()})
        row.update(self.statistics)
        return row


class PhaseTimer:
    """Accumulates named phase durations and the total runtime."""

    def __init__(self) -> None:
        self._start = time.perf_counter()
        self.phases: dict[str, float] = {}

    def phase(self, name: str) -> "_PhaseContext":
        """Context manager measuring one named phase."""
        return _PhaseContext(self, name)

    def add(self, name: str, seconds: float) -> None:
        self.phases[name] = self.phases.get(name, 0.0) + seconds

    @property
    def total(self) -> float:
        return time.perf_counter() - self._start


class _PhaseContext:
    def __init__(self, timer: PhaseTimer, name: str):
        self._timer = timer
        self._name = name
        self._began = 0.0

    def __enter__(self) -> "_PhaseContext":
        self._began = time.perf_counter()
        return self

    def __exit__(self, *exc_info) -> None:
        self._timer.add(self._name, time.perf_counter() - self._began)


class Anonymizer(abc.ABC):
    """Base class of every anonymization algorithm.

    Subclasses set :attr:`name` (the identifier used by configurations and the
    registry) and :attr:`data_kind` (``"relational"``, ``"transaction"`` or
    ``"rt"``), and implement :meth:`anonymize`.
    """

    #: Registry identifier (e.g. ``"incognito"``); overridden by subclasses.
    name: str = "abstract"
    #: The kind of dataset the algorithm applies to.
    data_kind: str = "relational"

    @abc.abstractmethod
    def anonymize(self, dataset: Dataset) -> AnonymizationResult:
        """Anonymize ``dataset`` and return the result with its statistics."""

    def parameters(self) -> dict[str, Any]:
        """The algorithm's configuration, for reporting (overridden as needed)."""
        return {}

    def __repr__(self) -> str:
        parameters = ", ".join(f"{k}={v!r}" for k, v in self.parameters().items())
        return f"{type(self).__name__}({parameters})"

    @staticmethod
    def _build_index(dataset: Dataset, attribute: str):
        """Posting-list index the constraint-based transaction algorithms
        (COAT, PCTA) run their support computations on.

        A test hook: overriding it with an index that recomputes every union
        (``tests/oracles/index.py``) verifies that union memoization never
        changes algorithm output.
        """
        from repro.index import InvertedIndex

        return InvertedIndex.from_dataset(dataset, attribute)


# -- shared helpers ----------------------------------------------------------------
def relational_quasi_identifiers(dataset: Dataset) -> list[str]:
    """Names of the relational quasi-identifier attributes of ``dataset``."""
    return quasi_identifier_attributes(dataset)


def require_hierarchies(
    attributes: Sequence[str], hierarchies: Mapping[str, Hierarchy], algorithm: str
) -> None:
    """Raise a configuration error when a needed hierarchy is missing."""
    missing = [name for name in attributes if name not in hierarchies]
    if missing:
        raise ConfigurationError(
            f"{algorithm} needs a generalization hierarchy for attributes {missing}"
        )


def validate_k(k: int, dataset_size: int, algorithm: str) -> None:
    """Validate the privacy parameter ``k`` against the dataset size."""
    if k < 2:
        raise ConfigurationError(f"{algorithm}: k must be at least 2 (got {k})")
    if dataset_size and k > dataset_size:
        raise ConfigurationError(
            f"{algorithm}: k={k} exceeds the dataset size ({dataset_size} records); "
            "no generalization can satisfy it"
        )


def publish_items(
    dataset: Dataset,
    attribute: str,
    algorithm: str,
    mappings: Sequence[Mapping[str, str | None] | None],
    groups: np.ndarray | None = None,
) -> Dataset:
    """The output of a transaction algorithm: ``attribute`` rewritten item by item.

    A mapping sends an item to the label it publishes as, or to ``None`` to
    suppress it; an unmapped item is published as itself, and a ``None``
    mapping suppresses every item.  Record ``r`` is rewritten through
    ``mappings[groups[r]]`` (one mapping per LRA partition), or through
    ``mappings[0]`` when ``groups`` is omitted.  The output is built as a
    column (:meth:`~repro.columnar.column.TransactionColumn.remap`), and its
    records only when something reads them.
    """
    source = dataset.columnar(attribute)
    items = source.vocabulary.items
    images = [
        [None] * len(items)
        if mapping is None
        else [mapping.get(item, item) for item in items]
        for mapping in mappings
    ]
    return dataset.with_columns(
        {attribute: source.remap(images, groups)}, name=f"{dataset.name}[{algorithm}]"
    )
