"""Information-loss metrics for relational (single-valued) attributes.

The measures follow the definitions used by the algorithms SECRETA
integrates:

* **NCP / GCP** (Normalized / Global Certainty Penalty, Xu et al. 2006) —
  how much of an attribute's domain a generalized value spans, averaged over
  cells and records.  0 means no generalization, 1 means every value was
  generalized to the root.
* **Discernibility Metric** (Bayardo & Agrawal) — the sum of squared
  equivalence-class sizes; penalises large, indistinct groups.
* **Average equivalence class size** ``C_avg`` (LeFevre et al.) — how much
  larger the average class is than the minimum required size ``k``.
"""

from __future__ import annotations

from typing import Mapping, Sequence

import numpy as np

from repro.columnar.relational import class_sizes, mixed_radix_keys
from repro.datasets.dataset import Dataset
from repro.exceptions import DatasetError
from repro.hierarchy.hierarchy import Hierarchy
from repro.index import LabelInterpreter, evict_when_full, interpreter_for
from repro.metrics.interpretation import SUPPRESSED


def quasi_identifier_attributes(dataset: Dataset) -> list[str]:
    """Names of the relational quasi-identifier attributes of ``dataset``.

    The shared default for every relational metric (and for the algorithms'
    attribute selection): score exactly the single-valued columns that
    participate in the privacy model.
    """
    return [
        attribute.name
        for attribute in dataset.schema.relational
        if attribute.quasi_identifier
    ]


def categorical_value_ncp(
    label: str,
    hierarchy: Hierarchy | None,
    domain_size: int,
    interpreter: LabelInterpreter | None = None,
) -> float:
    """NCP of one categorical cell: ``(|leaves(label)| - 1) / (|domain| - 1)``.

    The leaves are the interpreter's *restricted* leaves: with an interpreter
    keyed by the original domain (as :class:`RelationalLossContext` builds
    them), hierarchy leaves absent from the data do not count, so the NCP
    stays within ``[0, 1]`` — the rule utility loss and the ``"original"``
    ARE mode apply too.  Without an interpreter the hierarchy alone decides.
    """
    if domain_size <= 1:
        return 0.0
    if str(label) == SUPPRESSED:
        return 1.0
    if interpreter is None:
        interpreter = interpreter_for(hierarchy)
    leaves = interpreter.restricted_leaves(label)
    if not leaves:
        # The root "*" resolves to nothing without a hierarchy or domain; it
        # stands for the whole domain and must be charged fully, not 0.  So
        # is a label that covers no value of the domain.
        return 1.0
    return max(0, len(leaves) - 1) / (domain_size - 1)


def numeric_value_ncp(
    label,
    hierarchy: Hierarchy | None,
    domain_low: float,
    domain_high: float,
    interpreter: LabelInterpreter | None = None,
) -> float:
    """NCP of one numeric cell: the width of its range over the domain width."""
    if domain_high <= domain_low:
        return 0.0
    if str(label) == SUPPRESSED:
        return 1.0
    if isinstance(label, (int, float)):
        return 0.0
    if interpreter is None:
        interpreter = interpreter_for(hierarchy)
    span = interpreter.span(label)
    if span is None:
        # A label we cannot interpret numerically; treat as fully generalized.
        return 1.0
    low, high = span
    return max(0.0, min(1.0, (high - low) / (domain_high - domain_low)))


class RelationalLossContext:
    """Pre-computed domain information needed to score anonymized datasets.

    The context is built from the *original* dataset so that domain sizes and
    ranges reflect the true data, then reused to score any number of
    anonymized versions (exactly how SECRETA's varying-parameter execution
    scores a whole sweep).
    """

    def __init__(
        self,
        original: Dataset,
        attributes: Sequence[str] | None = None,
        hierarchies: Mapping[str, Hierarchy] | None = None,
    ):
        self.hierarchies = dict(hierarchies or {})
        if attributes is None:
            attributes = quasi_identifier_attributes(original)
        self.attributes = list(attributes)
        self.numeric_attributes: set[str] = set()
        self.domain_sizes: dict[str, int] = {}
        self.domain_ranges: dict[str, tuple[float, float]] = {}
        #: One shared label interpreter per scored attribute, plus a per-cell
        #: NCP memo: anonymized columns contain few distinct labels, so the
        #: per-record work collapses to a dictionary lookup.  Categorical
        #: interpreters are keyed by the original domain, so a label counts
        #: only the leaves the data holds.
        self._interpreters: dict[str, LabelInterpreter] = {}
        for name in self.attributes:
            attribute = original.schema[name]
            domain = original.domain(name)
            if not domain:
                raise DatasetError(f"attribute {name!r} has an empty domain")
            universe = None
            if attribute.is_numeric:
                self.numeric_attributes.add(name)
                self.domain_ranges[name] = (float(min(domain)), float(max(domain)))
            else:
                universe = [str(value) for value in domain]
            self.domain_sizes[name] = len(domain)
            self._interpreters[name] = interpreter_for(
                self.hierarchies.get(name), universe
            )
        self._cell_ncp_cache: dict[tuple[str, object], float] = {}

    def cell_ncp(self, attribute: str, label) -> float:
        """NCP of a single anonymized cell (memoized per distinct label).

        Raw numeric cells are not cached: they already score instantly and
        high-cardinality columns would pay memory for no speedup.
        """
        hierarchy = self.hierarchies.get(attribute)
        interpreter = self._interpreters.get(attribute)
        numeric = attribute in self.numeric_attributes
        if numeric and isinstance(label, (int, float)):
            low, high = self.domain_ranges[attribute]
            return numeric_value_ncp(label, hierarchy, low, high, interpreter)
        key = (attribute, label)
        cached = self._cell_ncp_cache.get(key)
        if cached is None:
            if numeric:
                low, high = self.domain_ranges[attribute]
                cached = numeric_value_ncp(label, hierarchy, low, high, interpreter)
            else:
                cached = categorical_value_ncp(
                    label, hierarchy, self.domain_sizes[attribute], interpreter
                )
            evict_when_full(self._cell_ncp_cache)
            self._cell_ncp_cache[key] = cached
        return cached

    # -- vectorized dataset scoring ------------------------------------------------
    def attribute_ncp_values(self, anonymized: Dataset, attribute: str) -> np.ndarray:
        """Per-record NCP of one attribute as a ``float64`` array.

        Scores every *distinct* label once through :meth:`cell_ncp` into a
        lookup table over the anonymized column's value codes, then gathers
        the table per record.
        """
        column = anonymized.columnar(attribute)
        table = np.fromiter(
            (self.cell_ncp(attribute, value) for value in column.values),
            dtype=np.float64,
            count=len(column.values),
        )
        return column.take(table) if len(column.values) else np.zeros(len(anonymized))

    def dataset_ncp_values(self, anonymized: Dataset) -> np.ndarray:
        """Per-record NCP (the mean over the scored attributes) for all records."""
        if not self.attributes:
            return np.zeros(len(anonymized))
        totals = np.zeros(len(anonymized))
        for attribute in self.attributes:
            totals += self.attribute_ncp_values(anonymized, attribute)
        return totals / len(self.attributes)


def global_certainty_penalty(
    original: Dataset,
    anonymized: Dataset,
    attributes: Sequence[str] | None = None,
    hierarchies: Mapping[str, Hierarchy] | None = None,
    context: RelationalLossContext | None = None,
) -> float:
    """GCP: the average record NCP of the anonymized dataset (0 = intact).

    Pass a pre-built ``context`` to reuse its domain information and NCP memo
    when scoring many anonymized versions of the same original dataset.
    """
    if len(anonymized) == 0:
        return 0.0
    if context is None:
        context = RelationalLossContext(original, attributes, hierarchies)
    return float(context.dataset_ncp_values(anonymized).sum()) / len(anonymized)


def ncp_per_attribute(
    original: Dataset,
    anonymized: Dataset,
    attributes: Sequence[str] | None = None,
    hierarchies: Mapping[str, Hierarchy] | None = None,
) -> dict[str, float]:
    """Average NCP of each scored attribute (diagnostic view used in plots)."""
    context = RelationalLossContext(original, attributes, hierarchies)
    if len(anonymized) == 0:
        return {attribute: 0.0 for attribute in context.attributes}
    return {
        attribute: float(context.attribute_ncp_values(anonymized, attribute).sum())
        / len(anonymized)
        for attribute in context.attributes
    }


def equivalence_class_sizes(
    anonymized: Dataset, attributes: Sequence[str]
) -> np.ndarray:
    """Sizes of the equivalence classes induced by ``attributes`` (``int64``).

    Grouping runs over the columnar codes (one mixed-radix key per record,
    counted in one pass) instead of building a per-record tuple dictionary;
    codes share the dictionary-key equality of ``Dataset.group_by``, so the
    class structure is identical.
    """
    if len(anonymized) == 0:
        return np.zeros(0, dtype=np.int64)
    if not attributes:
        return np.array([len(anonymized)], dtype=np.int64)
    if any(anonymized.schema[attribute].is_transaction for attribute in attributes):
        # Set-valued cells have no code column; group the classic way.
        groups = anonymized.group_by(list(attributes))
        return np.fromiter(
            (len(indices) for indices in groups.values()),
            dtype=np.int64,
            count=len(groups),
        )
    columns = [anonymized.columnar(attribute) for attribute in attributes]
    keys = mixed_radix_keys(
        ((column.codes, len(column.values)) for column in columns), len(anonymized)
    )
    return class_sizes(keys)


def discernibility_metric(
    anonymized: Dataset, attributes: Sequence[str] | None = None
) -> int:
    """Discernibility: sum of squared equivalence-class sizes."""
    if attributes is None:
        attributes = quasi_identifier_attributes(anonymized)
    sizes = equivalence_class_sizes(anonymized, list(attributes))
    return int((sizes * sizes).sum())


def average_class_size(
    anonymized: Dataset, k: int, attributes: Sequence[str] | None = None
) -> float:
    """``C_avg``: (records / classes) / k.  1.0 is the ideal value."""
    if k < 1:
        raise DatasetError("k must be at least 1")
    if attributes is None:
        attributes = quasi_identifier_attributes(anonymized)
    sizes = equivalence_class_sizes(anonymized, list(attributes))
    if sizes.size == 0:
        return 0.0
    return (len(anonymized) / sizes.size) / k
