"""CSR-style tokenized view of one transaction attribute.

A :class:`TransactionColumn` is the columnar twin of the row-oriented
``Record`` storage: the attribute's itemsets are tokenized against an
:class:`~repro.columnar.vocabulary.ItemVocabulary` and laid out as two flat
arrays — ``indptr`` (``int64``, ``n_records + 1`` row offsets) and ``tokens``
(``int32``, one entry per item occurrence) — exactly a CSR sparse-matrix
pattern.  Derived structures the hot paths need are computed lazily and
cached on the column:

* :meth:`bitset_postings` — per-token record bitsets (the inverted index),
* :meth:`occurrence_join` — the record-aligned (occurrence, label) pair
  expansion the transaction metrics reduce over with ``minimum.reduceat``.

:meth:`remap` rewrites a column through per-item images (generalize,
group or suppress an item); the transaction algorithms publish their
output this way, without building or re-tokenizing any itemset.

A column is a snapshot: :meth:`repro.datasets.dataset.Dataset.columnar`
caches one per attribute and drops it on any dataset mutation.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Sequence

import numpy as np

from repro.columnar.bitset import posting_matrix
from repro.columnar.vocabulary import ItemVocabulary

if TYPE_CHECKING:  # pragma: no cover - import cycle guard (dataset ↔ columnar)
    from repro.datasets.dataset import Dataset


class TransactionColumn:
    """Tokenized CSR layout of a transaction attribute plus cached kernels."""

    __slots__ = (
        "vocabulary",
        "indptr",
        "tokens",
        "attribute",
        "_postings",
        "_join",
    )

    def __init__(
        self,
        vocabulary: ItemVocabulary,
        indptr: np.ndarray,
        tokens: np.ndarray,
        attribute: str = "",
    ) -> None:
        self.vocabulary = vocabulary
        self.indptr = indptr
        self.tokens = tokens
        self.attribute = attribute
        self._postings: np.ndarray | None = None
        self._join: tuple["TransactionColumn", tuple] | None = None

    @classmethod
    def from_dataset(
        cls, dataset: "Dataset", attribute: str | None = None
    ) -> "TransactionColumn":
        """Tokenize ``attribute`` of ``dataset`` (default: its only transaction one)."""
        attribute = attribute or dataset.single_transaction_attribute()
        return cls.from_itemsets([record[attribute] for record in dataset], attribute)

    @classmethod
    def from_itemsets(
        cls, itemsets: Sequence[frozenset], attribute: str = ""
    ) -> "TransactionColumn":
        """Tokenize one itemset of item labels per record."""
        vocabulary = ItemVocabulary(
            item for itemset in itemsets for item in itemset
        )
        lookup = vocabulary.token
        indptr = np.zeros(len(itemsets) + 1, dtype=np.int64)
        chunks: list[list[int]] = []
        offset = 0
        for position, itemset in enumerate(itemsets):
            # Sorted within the row: frozenset iteration order follows the
            # per-process hash seed, and any float reduction in occurrence
            # order (e.g. the UL charge sum) would differ by ulps between
            # interpreters — breaking byte-identical checkpoint resume.
            row = sorted(lookup(item) for item in itemset)
            offset += len(row)
            indptr[position + 1] = offset
            chunks.append(row)
        tokens = np.fromiter(
            (token for row in chunks for token in row),
            dtype=np.int32,
            count=offset,
        )
        return cls(vocabulary, indptr, tokens, attribute=attribute)

    def remap(
        self,
        images: Sequence[Sequence[str | None]],
        groups: np.ndarray | None = None,
    ) -> "TransactionColumn":
        """This column with every item replaced by its image.

        ``images`` holds one table per record group, each with one entry per
        vocabulary token: the label the item publishes as, or ``None`` to
        suppress it.  Record ``r`` is rewritten through table ``groups[r]``
        (every record through table 0 when ``groups`` is omitted).  Items of
        a record that meet at one label count once, and the vocabulary holds
        only the labels some record publishes, so the result equals
        :meth:`from_dataset` over the rewritten itemsets.
        """
        labels = sorted(
            {label for table in images for label in table if label is not None}
        )
        code_of = {label: code for code, label in enumerate(labels)}
        table = np.array(
            [
                [-1 if label is None else code_of[label] for label in row]
                for row in images
            ],
            dtype=np.int64,
        ).reshape(len(images), len(self.vocabulary))
        record_ids = self.record_ids()
        selector = 0 if groups is None else np.asarray(groups)[record_ids]
        codes = table[selector, self.tokens]
        kept = codes >= 0
        record_ids, codes = record_ids[kept], codes[kept]
        order = np.lexsort((codes, record_ids))
        record_ids, codes = record_ids[order], codes[order]
        fresh = np.ones(len(codes), dtype=bool)
        fresh[1:] = (record_ids[1:] != record_ids[:-1]) | (codes[1:] != codes[:-1])
        record_ids, codes = record_ids[fresh], codes[fresh]
        # Drop the labels no record publishes; renumbering the survivors in
        # order keeps every row's tokens sorted.
        used = np.flatnonzero(np.bincount(codes, minlength=len(labels)))
        compact = np.zeros(len(labels), dtype=np.int32)
        compact[used] = np.arange(len(used), dtype=np.int32)
        indptr = np.zeros(self.n_records + 1, dtype=np.int64)
        np.cumsum(np.bincount(record_ids, minlength=self.n_records), out=indptr[1:])
        return TransactionColumn(
            ItemVocabulary(labels[code] for code in used.tolist()),
            indptr,
            compact[codes],
            attribute=self.attribute,
        )

    def __repr__(self) -> str:
        return (
            f"TransactionColumn(attribute={self.attribute!r}, "
            f"records={self.n_records}, items={len(self.vocabulary)}, "
            f"occurrences={self.total_items})"
        )

    @property
    def n_records(self) -> int:
        return len(self.indptr) - 1

    @property
    def total_items(self) -> int:
        """Total item occurrences (sum of itemset sizes)."""
        return len(self.tokens)

    def row_lengths(self) -> np.ndarray:
        """Itemset size per record."""
        return np.diff(self.indptr)

    def cells(self) -> list[frozenset]:
        """Every record's itemset, in record order (a new list)."""
        items = self.vocabulary.items
        labels = [items[token] for token in self.tokens.tolist()]
        bounds = self.indptr.tolist()
        return [frozenset(labels[start:end]) for start, end in zip(bounds, bounds[1:])]

    def row_tokens(self, index: int) -> np.ndarray:
        """Token ids of record ``index`` (a view into the CSR array)."""
        return self.tokens[self.indptr[index] : self.indptr[index + 1]]

    def record_ids(self) -> np.ndarray:
        """The record index of every occurrence (parallel to ``tokens``)."""
        return np.repeat(np.arange(self.n_records, dtype=np.int64), self.row_lengths())

    def bitset_postings(self) -> np.ndarray:
        """Per-token posting bitsets: ``(n_items, ceil(n_records/64))`` ``uint64``."""
        if self._postings is None:
            self._postings = posting_matrix(
                self.tokens, self.record_ids(), len(self.vocabulary), self.n_records
            )
        return self._postings

    def occurrence_join(
        self, source: "TransactionColumn"
    ) -> tuple[np.ndarray, np.ndarray, int]:
        """Record-aligned cross join of ``source`` occurrences with this column.

        For every item occurrence of ``source`` record ``r``, pair it with
        every token of *this* column's record ``r``.  Returns
        ``(flat, segment_starts, unpaired)``:

        * ``flat`` — per pair, ``this_token * len(source.vocabulary) +
          source_token``, ready to gather from the raveled charge matrix of a
          ``(len(self.vocabulary), len(source.vocabulary))`` table,
        * ``segment_starts`` — start offset of each paired occurrence's pair
          segment (for ``ufunc.reduceat`` reductions),
        * ``unpaired`` — occurrences of records whose row here is empty.

        The join depends only on the two CSR layouts, so it is cached per
        ``source`` column (the repeated-metric-evaluation regime).  Both
        columns must cover the same records in the same order.
        """
        cached = self._join
        if cached is not None and cached[0] is source:
            return cached[1]
        source_lengths = source.row_lengths()
        own_lengths = self.row_lengths()
        pairs_per_occurrence = np.repeat(own_lengths, source_lengths)
        paired = pairs_per_occurrence > 0
        unpaired = int(np.count_nonzero(~paired))
        counts = pairs_per_occurrence[paired]
        segment_starts = np.cumsum(counts) - counts
        total = int(counts.sum())
        own_row_starts = np.repeat(self.indptr[:-1], source_lengths)[paired]
        positions = (
            np.arange(total, dtype=np.int64)
            - np.repeat(segment_starts, counts)
            + np.repeat(own_row_starts, counts)
        )
        flat = self.tokens[positions].astype(np.int64) * len(
            source.vocabulary
        ) + np.repeat(source.tokens.astype(np.int64)[paired], counts)
        result = (flat, segment_starts, unpaired)
        self._join = (source, result)
        return result
