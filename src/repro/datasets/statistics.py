"""Attribute statistics used by SECRETA's visualizations.

The paper's main screen (Figure 2) plots histograms of the frequency of
values in any attribute; the Evaluation screen (Figure 3) additionally plots
the frequency of generalized values in a relational attribute and the
relative error between the frequency of transaction items in the original and
the anonymized dataset.  This module computes all of those series as plain
dictionaries so that the plotting and export layers can render them.
"""

from __future__ import annotations

import math
from collections import Counter
from typing import Any, Mapping

import numpy as np

from repro.datasets.dataset import Dataset
from repro.exceptions import DatasetError


def value_frequencies(dataset: Dataset, attribute: str) -> dict[Any, int]:
    """Frequency of each value of ``attribute``.

    For transaction attributes the frequency of an *item* is the number of
    records whose itemset contains it (its support).  A relational attribute
    is counted on its cached columnar codes: keys in first-seen order, equal
    as dictionary keys (``25`` and ``25.0`` share the first one seen), and
    missing cells skipped.
    """
    meta = dataset.schema[attribute]
    if meta.is_transaction:
        counter: Counter = Counter()
        for record in dataset:
            counter.update(record[attribute])
        return dict(counter)
    column = dataset.columnar(attribute)
    counts = np.bincount(column.codes, minlength=len(column.values))
    return {
        value: int(count)
        for value, count in zip(column.values, counts)
        if value is not None
    }


def numeric_histogram(
    dataset: Dataset, attribute: str, bins: int = 10
) -> dict[str, list]:
    """Equi-width histogram of a numeric attribute.

    Returns a mapping with ``edges`` (``bins + 1`` boundaries) and ``counts``
    (``bins`` bucket counts).
    """
    meta = dataset.schema[attribute]
    if not meta.is_numeric:
        raise DatasetError(f"attribute {attribute!r} is not numeric")
    values = [v for v in dataset.column(attribute) if v is not None]
    if not values:
        return {"edges": [], "counts": []}
    counts, edges = np.histogram(np.asarray(values, dtype=float), bins=bins)
    return {"edges": edges.tolist(), "counts": counts.tolist()}


def attribute_histogram(
    dataset: Dataset, attribute: str, bins: int = 10
) -> dict[str, Any]:
    """Histogram of any attribute, as plotted by the Dataset Editor.

    Categorical and transaction attributes yield per-value counts sorted by
    decreasing frequency; numeric attributes yield an equi-width histogram.
    """
    meta = dataset.schema[attribute]
    if meta.is_numeric:
        histogram = numeric_histogram(dataset, attribute, bins=bins)
        return {"attribute": attribute, "kind": "numeric", **histogram}
    frequencies = value_frequencies(dataset, attribute)
    ordered = sorted(frequencies.items(), key=lambda pair: (-pair[1], str(pair[0])))
    return {
        "attribute": attribute,
        "kind": meta.kind.value,
        "labels": [label for label, _ in ordered],
        "counts": [count for _, count in ordered],
    }


def dataset_summary(dataset: Dataset) -> dict[str, Any]:
    """A compact per-attribute summary of the dataset.

    Numeric attributes report min/max/mean/std; categorical ones the number of
    distinct values and the mode; transaction ones the universe size and the
    average itemset length.
    """
    summary: dict[str, Any] = {
        "name": dataset.name,
        "records": len(dataset),
        "attributes": {},
    }
    for attribute in dataset.schema:
        name = attribute.name
        if attribute.is_numeric:
            values = [v for v in dataset.column(name) if v is not None]
            stats = (
                {
                    "min": float(min(values)),
                    "max": float(max(values)),
                    "mean": float(np.mean(values)),
                    "std": float(np.std(values)),
                }
                if values
                else {"min": None, "max": None, "mean": None, "std": None}
            )
            summary["attributes"][name] = {"kind": "numeric", **stats}
        elif attribute.is_categorical:
            frequencies = value_frequencies(dataset, name)
            mode = max(frequencies, key=frequencies.get) if frequencies else None
            summary["attributes"][name] = {
                "kind": "categorical",
                "distinct": len(frequencies),
                "mode": mode,
            }
        else:
            lengths = [len(record[name]) for record in dataset]
            summary["attributes"][name] = {
                "kind": "transaction",
                "universe": len(dataset.item_universe(name)),
                "avg_items": float(np.mean(lengths)) if lengths else 0.0,
                "max_items": max(lengths) if lengths else 0,
            }
    return summary


def frequency_relative_error(
    original: Mapping[Any, int], anonymized: Mapping[Any, int]
) -> dict[Any, float]:
    """Relative difference of per-value frequencies (Figure 3(d) series).

    For each value present in either mapping the relative error is
    ``|f_anon - f_orig| / f_orig`` (or ``inf`` for values absent from the
    original but present in the anonymized data).
    """
    errors: dict[Any, float] = {}
    for value in set(original) | set(anonymized):
        original_count = original.get(value, 0)
        anonymized_count = anonymized.get(value, 0)
        if original_count == 0:
            errors[value] = math.inf if anonymized_count else 0.0
        else:
            errors[value] = abs(anonymized_count - original_count) / original_count
    return errors


def generalized_value_frequencies(dataset: Dataset, attribute: str) -> dict[str, int]:
    """Frequency of generalized values in a relational attribute.

    Identical to :func:`value_frequencies` but keeps interval labels such as
    ``"[20-40)"`` as strings; exposed separately because the Evaluation screen
    plots it against the anonymized output specifically.
    """
    return {str(k): v for k, v in value_frequencies(dataset, attribute).items()}
