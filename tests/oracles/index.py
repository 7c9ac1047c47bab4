"""Scalar references of :class:`repro.index.InvertedIndex`.

:class:`FrozensetIndex` keeps one ``frozenset`` of record ids per item and
answers group unions and constraint supports with set algebra, as the index
did before its postings became bitsets.  :class:`UncachedIndex` is the
bitset index without its per-group union memo, so tests can show the memo
changes nothing.
"""

from __future__ import annotations

import numpy as np

from repro.columnar.bitset import union_rows
from repro.datasets.dataset import Dataset
from repro.index import InvertedIndex


class UncachedIndex(InvertedIndex):
    """An :class:`InvertedIndex` that recomputes every group union."""

    def _group_bits(self, key: frozenset) -> np.ndarray:
        tokens = [self._token[item] for item in key if item in self._token]
        return union_rows(self._bits, np.asarray(tokens, dtype=np.int64))


class FrozensetIndex:
    """A pure-frozenset inverted index over one transaction attribute."""

    def __init__(self, dataset: Dataset, attribute: str = "Items"):
        raw: dict[str, set[int]] = {}
        for position, record in enumerate(dataset):
            for item in record[attribute]:
                raw.setdefault(item, set()).add(position)
        self._postings = {item: frozenset(records) for item, records in raw.items()}

    def postings(self, item):
        return self._postings.get(item, frozenset())

    def frequency(self, item):
        return len(self.postings(item))

    def union(self, items):
        combined: set[int] = set()
        for item in items:
            combined |= self.postings(item)
        return frozenset(combined)

    def joint_support(self, group_list):
        covering = None
        for group in group_list:
            records = self.union(group)
            covering = records if covering is None else covering & records
            if not covering:
                return 0
        return len(covering) if covering is not None else 0
