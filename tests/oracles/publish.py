"""Row-path reference of a transaction algorithm's publish step.

Before the transaction algorithms published a remapped CSR column
(``repro.algorithms.base.publish_items``), they copied the input dataset and
rewrote every record's itemset through the item mapping with
``Dataset.map_column`` / ``set_value``, re-normalising each cell.  These are
that row path's semantics: an item mapped to ``None`` is suppressed, an
unmapped item is kept, and a ``None`` mapping suppresses every item.
"""

from __future__ import annotations

from typing import Mapping, Sequence

from repro.datasets.dataset import Dataset


def apply_item_mapping(
    dataset: Dataset, attribute: str, mapping: Mapping[str, str | None]
) -> None:
    """Rewrite a transaction column in place through an item mapping."""

    def rewrite(itemset) -> list[str]:
        rewritten = []
        for item in itemset:
            image = mapping.get(item, item)
            if image is not None:
                rewritten.append(image)
        return rewritten

    dataset.map_column(attribute, rewrite)


def publish_by_rows(
    dataset: Dataset,
    attribute: str,
    algorithm: str,
    mappings: Sequence[Mapping[str, str | None] | None],
    groups: Sequence[int] | None = None,
) -> Dataset:
    """A copy of ``dataset`` whose record ``r`` went through ``mappings[groups[r]]``."""
    published = dataset.copy(name=f"{dataset.name}[{algorithm}]")
    for index, record in enumerate(dataset):
        mapping = mappings[0 if groups is None else groups[index]]
        if mapping is None:
            images: list[str] = []
        else:
            images = [
                image
                for image in (mapping.get(item, item) for item in record[attribute])
                if image is not None
            ]
        published.set_value(index, attribute, images)
    return published
