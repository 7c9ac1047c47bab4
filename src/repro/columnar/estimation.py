"""Shape-level kernels for vectorized query estimation.

The query layer (:func:`repro.queries.query.estimate_workload`) estimates a
whole COUNT-query workload over one anonymized dataset in one pass: each
distinct condition resolves once per distinct label into a match table, and
one vocabulary × queried-items weight table reduces per record into an
item-match matrix (:func:`row_maxima`); each query then multiplies its
columns and sums them (:func:`sequential_sum`).  These kernels are the
reduction half: they know nothing about queries, hierarchies or universes —
they operate on the flat columnar arrays
(:class:`~repro.columnar.relational.CategoricalColumn` codes,
:class:`~repro.columnar.column.TransactionColumn` CSR rows and posting
bitsets) plus caller-built per-distinct-value tables.

Two contracts matter here:

* **Bit-for-bit equality with the per-record path.**  The scalar estimator
  multiplies per-record probabilities left to right and accumulates the total
  sequentially; :func:`sequential_sum` reproduces that exact addition order
  (``np.cumsum`` is a running, in-order reduction, unlike ``np.sum``'s
  pairwise tree), so the kernel result equals the per-record reference to the
  last ulp rather than merely approximately.
* **Empty rows reduce to 0.**  :func:`row_maxima` starts every row at 0 and
  folds in only the tokens a row has, so a row with no tokens (or none that
  weighs anything) reads 0, as the per-record maximum over nothing does.
"""

from __future__ import annotations

import numpy as np

from repro.columnar.bitset import bitset_from_indices


def sequential_sum(values: np.ndarray) -> float:
    """Left-to-right sum of ``values``, bit-identical to a Python ``+=`` loop.

    ``np.sum`` uses pairwise summation, which is *more* accurate than a
    sequential accumulation but differs in the last bits; the per-record
    estimation path is the semantic reference, so the kernel reproduces its
    exact rounding.
    """
    values = np.ascontiguousarray(values, dtype=np.float64)
    if values.size == 0:
        return 0.0
    return float(np.cumsum(values)[-1])


def row_maxima(
    indptr: np.ndarray, tokens: np.ndarray, weights: np.ndarray
) -> np.ndarray:
    """Per-CSR-row, per-column maximum of the row tokens' ``weights`` rows.

    ``indptr``/``tokens`` are the CSR arrays of ``n_records`` rows and
    ``weights`` is a ``(vocabulary, columns)`` table.  Row ``r`` of the
    ``(n_records, columns)`` result is the column-wise maximum of
    ``weights[tokens[indptr[r]:indptr[r + 1]]]``, and 0.0 for an empty row.

    The rows are ordered longest first, so the rows that have an ``s``-th
    token are a prefix; each token slot then folds in with one gather and
    one in-place ``np.maximum`` over that prefix.  A maximum is exact in any
    order, and folding slot by slot touches each occurrence's weights once,
    in contiguous blocks (a 2-D ``maximum.reduceat`` over ``weights[tokens]``
    computes the same matrix several times slower).
    """
    lengths = np.diff(indptr)
    order = np.argsort(-lengths, kind="stable")
    starts = indptr[:-1][order]
    #: ``longer[s]``: how many rows have more than ``s`` tokens.
    longer = len(lengths) - np.cumsum(np.bincount(lengths, minlength=1))
    ordered = np.zeros((len(lengths), weights.shape[1]), dtype=np.float64)
    for slot in range(len(longer) - 1):
        prefix = ordered[: longer[slot]]
        np.maximum(prefix, weights[tokens[starts[: longer[slot]] + slot]], out=prefix)
    result = np.empty_like(ordered)
    result[order] = ordered
    return result


def mask_to_bitset(mask: np.ndarray) -> np.ndarray:
    """Pack a per-record boolean mask into a record bitset."""
    return bitset_from_indices(np.flatnonzero(mask), len(mask))
