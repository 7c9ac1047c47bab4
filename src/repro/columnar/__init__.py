"""Columnar / bitset kernel layer for transaction attributes.

The row-oriented :class:`~repro.datasets.dataset.Dataset` stores itemsets as
per-record ``frozenset`` values — the right shape for anonymization
algorithms that group and rewrite *records*, and the wrong shape for the
set-algebra hot loops (posting-list unions, constraint support, utility
loss).  This package supplies the compact, vectorizable twin:

* :class:`ItemVocabulary` — ``item → token id`` over the sorted item universe,
* :class:`TransactionColumn` — a CSR-style tokenized item column
  (``indptr``/``tokens`` arrays) with lazily cached derived structures,
* :class:`CategoricalColumn` / :class:`NumericColumn` — the relational twin:
  one ``int32`` code per record over the column's distinct values (plus a
  ``float64`` ``NaN``-missing view for numeric attributes),
* :mod:`repro.columnar.bitset` — dense ``uint64`` posting bitsets with
  popcount-based union/intersection/support kernels, and the k^m
  rare-combination enumerator over Python ``int`` bitsets,
* :mod:`repro.columnar.estimation` — shape-level reduction kernels for the
  query-estimation hot path (order-preserving :func:`sequential_sum`,
  per-CSR-row :func:`row_maxima`, boolean-mask packing),
* :mod:`repro.columnar.shared` — zero-copy fan-out: pack the flat column
  arrays into one ``multiprocessing.shared_memory`` segment
  (:class:`SharedDatasetExport`) and rebuild read-only dataset views in
  worker processes from the picklable manifest (see ``docs/parallelism.md``).

``Dataset.columnar()`` builds and caches one column view per attribute
(transaction or relational); :class:`repro.index.InvertedIndex`, the
transaction metrics, the relational GCP/NCP and grouping metrics, and the
greedy-clustering / RT-merge kernels run on it.  See ``docs/columnar.md``
for the layout and materialization rules.
"""

from __future__ import annotations

from repro.columnar.bitset import (
    WORD_BITS,
    bitset_from_indices,
    empty_bitset,
    intersect_rows,
    popcount,
    popcount_rows,
    posting_matrix,
    union_rows,
    word_count,
)
from repro.columnar.column import TransactionColumn
from repro.columnar.estimation import mask_to_bitset, row_maxima, sequential_sum
from repro.columnar.relational import CategoricalColumn, NumericColumn
from repro.columnar.shared import (
    SharedDatasetExport,
    SharedDatasetManifest,
    attach,
    attach_cached,
    resolve_shared_dataset,
)
from repro.columnar.vocabulary import ItemVocabulary

__all__ = [
    "WORD_BITS",
    "CategoricalColumn",
    "ItemVocabulary",
    "NumericColumn",
    "SharedDatasetExport",
    "SharedDatasetManifest",
    "TransactionColumn",
    "attach",
    "attach_cached",
    "resolve_shared_dataset",
    "bitset_from_indices",
    "empty_bitset",
    "intersect_rows",
    "mask_to_bitset",
    "popcount",
    "popcount_rows",
    "posting_matrix",
    "row_maxima",
    "sequential_sum",
    "union_rows",
    "word_count",
]
