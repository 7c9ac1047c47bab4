"""Per-record reference of the attribute statistics.

:func:`value_frequencies_by_records` counts a relational attribute with a
``Counter`` over the records, the walk ``value_frequencies`` made before it
counted the cached columnar codes; :func:`item_frequencies_by_records` is the
same walk over a transaction attribute's itemsets, before the CSR tokens
were counted.
"""

from __future__ import annotations

from collections import Counter
from typing import Any

from repro.datasets.dataset import Dataset


def value_frequencies_by_records(dataset: Dataset, attribute: str) -> dict[Any, int]:
    """Frequency of each non-missing value of a relational ``attribute``."""
    counter: Counter = Counter()
    for record in dataset:
        value = record[attribute]
        if value is not None:
            counter[value] += 1
    return dict(counter)


def item_frequencies_by_records(dataset: Dataset, attribute: str) -> dict[str, int]:
    """Support of each item of a transaction ``attribute``."""
    counter: Counter = Counter()
    for record in dataset:
        counter.update(record[attribute])
    return dict(counter)
