"""Inverted index of a transaction attribute: item → posting list.

The constraint-based transaction algorithms (COAT, PCTA) spend almost all of
their time asking *"which records could contain an item of this group?"* —
the union of the group members' posting lists.  The postings are stored as
dense ``uint64`` bitsets (:mod:`repro.columnar.bitset`): a group union is a
vectorized word-wise OR and constraint support is ANDs plus a popcount.  The
algorithms only need sizes and supports, so record ids are never boxed.

The same groups recur across constraint iterations, so the per-group union
bitsets are memoized by the (frozen) item group.  The memoization is pure: a
cached union is exactly the union that would be recomputed, so algorithm
outputs are unchanged.
"""

from __future__ import annotations

from typing import Iterable

import numpy as np

from repro.columnar.bitset import popcount, popcount_rows, union_rows
from repro.columnar.column import TransactionColumn
from repro.datasets.dataset import Dataset
from repro.index.interpreter import evict_when_full


class InvertedIndex:
    """Per-item posting bitsets over one tokenized transaction column."""

    def __init__(self, column: TransactionColumn) -> None:
        self._items = list(column.vocabulary.items)
        self._token: dict[str, int] = {item: t for t, item in enumerate(self._items)}
        self._bits = column.bitset_postings()
        self._frequencies = popcount_rows(self._bits)
        self.n_records = column.n_records
        self._union_bits_memo: dict[frozenset, np.ndarray] = {}

    @classmethod
    def from_dataset(
        cls, dataset: Dataset, attribute: str | None = None
    ) -> "InvertedIndex":
        """Build the index of ``attribute`` (default: the only transaction one).

        Construction goes through the dataset's cached columnar view
        (:meth:`~repro.datasets.dataset.Dataset.columnar`): the CSR token
        column is scattered into posting bitsets in one vectorized pass.
        """
        return cls(dataset.columnar(attribute))

    def __repr__(self) -> str:
        return (
            f"InvertedIndex(items={len(self._items)}, "
            f"records={self.n_records}, cached_unions={len(self._union_bits_memo)})"
        )

    def __contains__(self, item: object) -> bool:
        return item in self._token

    def __len__(self) -> int:
        return len(self._items)

    @property
    def universe(self) -> frozenset[str]:
        """All indexed items."""
        return frozenset(self._items)

    def frequency(self, item: str) -> int:
        """Support of a single item."""
        token = self._token.get(item)
        return int(self._frequencies[token]) if token is not None else 0

    def _group_bits(self, key: frozenset) -> np.ndarray:
        """The union bitset of an item group (memoized per group)."""
        cached = self._union_bits_memo.get(key)
        if cached is not None:
            return cached
        lookup = self._token
        tokens = [lookup[item] for item in key if item in lookup]
        bits = union_rows(self._bits, np.asarray(tokens, dtype=np.int64))
        evict_when_full(self._union_bits_memo)
        self._union_bits_memo[key] = bits
        return bits

    @staticmethod
    def _as_key(items: Iterable[str]) -> frozenset:
        return items if isinstance(items, frozenset) else frozenset(items)

    def union_size(self, items: Iterable[str]) -> int:
        """Number of records containing *any* item of the group (memoized per group)."""
        return popcount(self._group_bits(self._as_key(items)))

    def merged_union_size(
        self, items_a: Iterable[str], items_b: Iterable[str]
    ) -> int:
        """Records containing an item of ``items_a`` or of ``items_b``.

        The PCTA merge scorer uses this to rate a candidate cluster merge
        without building either record set.
        """
        bits_a = self._group_bits(self._as_key(items_a))
        bits_b = self._group_bits(self._as_key(items_b))
        return popcount(bits_a | bits_b)

    def joint_support(self, groups: Iterable[Iterable[str]]) -> int:
        """Records containing an item of *every* group (0 for no groups).

        This is the support computation of COAT/PCTA privacy constraints:
        each constraint item is represented by its current group, and a record
        supports the constraint when it intersects every group.  The whole
        computation stays in the bitset domain: OR per group (memoized), AND
        across groups, one popcount at the end.
        """
        covering: np.ndarray | None = None
        for group in groups:
            bits = self._group_bits(self._as_key(group))
            covering = bits if covering is None else covering & bits
            if not covering.any():
                return 0
        return popcount(covering) if covering is not None else 0
