"""Dense ``uint64`` bitset kernels for record sets.

A set of record indices over an ``n_records``-row dataset is stored as a
little-endian bit vector packed into ``ceil(n_records / 64)`` unsigned 64-bit
words: record ``r`` lives in word ``r >> 6`` at bit ``r & 63``.  Union,
intersection and support then become word-wise ``|`` / ``&`` plus a popcount —
one vectorized NumPy pass over a few KiB instead of Python-level hash-set
algebra over thousands of boxed integers.  These kernels release the GIL for
the duration of each array operation.

All functions are pure; bitsets are plain ``numpy.ndarray`` values and callers
own the memory.  The one exception is :func:`rare_combinations`, the k^m
enumerator, which walks Python ``int`` bitsets (bit ``r`` = record ``r``): its
inputs are a few dozen rows of at most a few thousand records, where one
``int`` AND plus ``int.bit_count()`` beats a NumPy call per step.
"""

from __future__ import annotations

from typing import Iterable, Iterator, Sequence

import numpy as np

#: Bits per storage word.
WORD_BITS = 64

_ONE = np.uint64(1)
_WORD_SHIFT = 6  # log2(WORD_BITS)
_BIT_MASK = np.int64(WORD_BITS - 1)

try:  # NumPy >= 2.0
    _bitwise_count = np.bitwise_count
except AttributeError:  # pragma: no cover - exercised only on NumPy 1.x
    _BYTE_POPCOUNT = np.array(
        [bin(value).count("1") for value in range(256)], dtype=np.uint8
    )

    def _bitwise_count(words: np.ndarray) -> np.ndarray:
        return _BYTE_POPCOUNT[words[..., None].view(np.uint8)].sum(axis=-1)


def word_count(n_bits: int) -> int:
    """Number of ``uint64`` words needed to hold ``n_bits`` bits."""
    return (int(n_bits) + WORD_BITS - 1) >> _WORD_SHIFT


def empty_bitset(n_bits: int) -> np.ndarray:
    """An all-zero bitset with capacity for ``n_bits`` bits."""
    return np.zeros(word_count(n_bits), dtype=np.uint64)


def bitset_from_indices(indices: Iterable[int], n_bits: int) -> np.ndarray:
    """Pack an iterable of bit positions into a bitset of capacity ``n_bits``."""
    bits = empty_bitset(n_bits)
    positions = np.fromiter((int(i) for i in indices), dtype=np.int64)
    if positions.size:
        np.bitwise_or.at(
            bits,
            positions >> _WORD_SHIFT,
            _ONE << (positions & _BIT_MASK).astype(np.uint64),
        )
    return bits


def posting_matrix(
    tokens: Sequence[int] | np.ndarray,
    record_ids: Sequence[int] | np.ndarray,
    n_tokens: int,
    n_records: int,
) -> np.ndarray:
    """Per-token posting bitsets from parallel (token, record) occurrence arrays.

    Returns a ``(n_tokens, word_count(n_records))`` ``uint64`` matrix whose
    row ``t`` is the bitset of records containing token ``t``.
    """
    bits = np.zeros((n_tokens, word_count(n_records)), dtype=np.uint64)
    tokens = np.asarray(tokens, dtype=np.int64)
    if tokens.size:
        records = np.asarray(record_ids, dtype=np.int64)
        np.bitwise_or.at(
            bits,
            (tokens, records >> _WORD_SHIFT),
            _ONE << (records & _BIT_MASK).astype(np.uint64),
        )
    return bits


def popcount(bits: np.ndarray) -> int:
    """Total number of set bits (the cardinality of the record set)."""
    return int(_bitwise_count(bits).sum())


def popcount_rows(matrix: np.ndarray) -> np.ndarray:
    """Per-row set-bit counts of a 2-D bitset matrix."""
    return _bitwise_count(matrix).sum(axis=1, dtype=np.int64)


def popcount_segments(matrix: np.ndarray, starts: Sequence[int] | np.ndarray) -> np.ndarray:
    """Per-column set-bit counts of each run of rows of a word-major bitset matrix.

    ``matrix`` holds one bitset per column, word ``w`` in row ``w``.  Segment
    ``j`` spans the rows from ``starts[j]`` up to the next start (or the last
    row); the result is ``(len(starts), columns)`` ``int64``.
    """
    counts = _bitwise_count(matrix).astype(np.int64)
    starts = np.asarray(starts, dtype=np.int64)
    segments = counts[starts]
    # A gather of each segment's first word; only longer segments add more
    # (``np.add.reduceat`` along the rows is several times slower).
    ends = np.append(starts[1:], len(counts))
    for position in np.flatnonzero(ends - starts > 1):
        segments[position] += counts[starts[position] + 1 : ends[position]].sum(axis=0)
    return segments


def union_rows(matrix: np.ndarray, rows: Sequence[int] | np.ndarray) -> np.ndarray:
    """Bitwise OR of the selected ``rows`` of a posting matrix (empty → zeros)."""
    rows = np.asarray(rows, dtype=np.int64)
    if rows.size == 0:
        return np.zeros(matrix.shape[1], dtype=np.uint64)
    if rows.size == 1:
        return matrix[rows[0]].copy()
    return np.bitwise_or.reduce(matrix[rows], axis=0)


def intersect_rows(
    matrix: np.ndarray, rows: Sequence[int] | np.ndarray
) -> np.ndarray:
    """Bitwise AND of the selected ``rows`` of a posting matrix (empty → zeros).

    The empty intersection is *not* the universe: callers asking for the
    records containing "all of no items" should not call this at all, so the
    degenerate case resolves to the conservative empty set.
    """
    rows = np.asarray(rows, dtype=np.int64)
    if rows.size == 0:
        return np.zeros(matrix.shape[1], dtype=np.uint64)
    if rows.size == 1:
        return matrix[rows[0]].copy()
    return np.bitwise_and.reduce(matrix[rows], axis=0)


def rare_combinations(
    rows: Sequence[int], size: int, k: int, bits: int | None = None
) -> Iterator[tuple[tuple[int, ...], int]]:
    """Combinations of exactly ``size`` rows whose joint support lies in ``(0, k)``.

    ``rows`` are Python ``int`` bitsets.  Yields ``(combination, together)``
    pairs in lexicographic order: the ascending row positions and the AND of
    their rows (and of ``bits``, when a starting bitset is given), whose
    popcount is the support.  Empty rows and prefixes whose AND is empty are
    pruned: every superset of an empty record set is empty as well, so it
    cannot be rare.  With ``size == 0`` the only combination is the empty one,
    whose AND is ``bits`` itself.
    """
    if size == 0:
        if bits is not None and 0 < bits.bit_count() < k:
            yield (), bits
        return
    # -1 is the all-ones int: the AND of no rows.
    yield from _rare_extensions(rows, (), -1 if bits is None else bits, 0, size, k)


def _rare_extensions(
    rows: Sequence[int],
    prefix: tuple[int, ...],
    bits: int,
    start: int,
    remaining: int,
    k: int,
) -> Iterator[tuple[tuple[int, ...], int]]:
    """Extend ``prefix`` (whose AND is ``bits``) by ``remaining`` rows from ``start`` on."""
    if remaining == 1:
        for position in range(start, len(rows)):
            together = bits & rows[position]
            if together and together.bit_count() < k:
                yield prefix + (position,), together
        return
    for position in range(start, len(rows) - remaining + 1):
        narrowed = bits & rows[position]
        if narrowed:
            yield from _rare_extensions(
                rows, prefix + (position,), narrowed, position + 1, remaining - 1, k
            )
