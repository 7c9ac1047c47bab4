"""Dense ``uint64`` bitset kernels for record sets.

A set of record indices over an ``n_records``-row dataset is stored as a
little-endian bit vector packed into ``ceil(n_records / 64)`` unsigned 64-bit
words: record ``r`` lives in word ``r >> 6`` at bit ``r & 63``.  Union,
intersection and support then become word-wise ``|`` / ``&`` plus a popcount —
one vectorized NumPy pass over a few KiB instead of Python-level hash-set
algebra over thousands of boxed integers.  These kernels release the GIL for
the duration of each array operation.

All functions are pure; bitsets are plain ``numpy.ndarray`` values and callers
own the memory.
"""

from __future__ import annotations

from typing import Iterable, Iterator, Sequence

import numpy as np

#: Bits per storage word.
WORD_BITS = 64

#: Upper bound on the words one :func:`pair_supports` block materializes
#: (2 MiB of ``uint64``); larger matrices are processed in row blocks.
_PAIR_BLOCK_WORDS = 1 << 18

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


def bitset_rows(values: Sequence[int], n_bits: int) -> np.ndarray:
    """Pack Python ``int`` bitsets (bit ``r`` = record ``r``) into this layout.

    Returns a ``(len(values), word_count(n_bits))`` ``uint64`` matrix.
    """
    width = word_count(n_bits)
    packed = b"".join(value.to_bytes(width * 8, "little") for value in values)
    return np.frombuffer(packed, dtype="<u8").astype(np.uint64).reshape(len(values), width)


def popcount(bits: np.ndarray) -> int:
    """Total number of set bits (the cardinality of the record set)."""
    return int(_bitwise_count(bits).sum())


def popcount_rows(matrix: np.ndarray) -> np.ndarray:
    """Per-row set-bit counts of a 2-D bitset matrix."""
    return _bitwise_count(matrix).sum(axis=1, dtype=np.int64)


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


def pair_supports(matrix: np.ndarray) -> np.ndarray:
    """``(n, n)`` matrix of ``popcount(matrix[i] & matrix[j])`` over the rows.

    The pairwise ANDs are materialized a block of rows at a time (at most
    ``_PAIR_BLOCK_WORDS`` words), so a wide matrix never allocates
    ``n * n * words`` at once.
    """
    n, width = matrix.shape
    supports = np.zeros((n, n), dtype=np.int64)
    if n == 0 or width == 0:
        return supports
    step = max(1, _PAIR_BLOCK_WORDS // (n * width))
    for begin in range(0, n, step):
        block = matrix[begin : begin + step, None, :] & matrix[None, :, :]
        supports[begin : begin + step] = _bitwise_count(block).sum(
            axis=2, dtype=np.int64
        )
    return supports


def rare_combinations(
    matrix: np.ndarray, size: int, k: int
) -> Iterator[tuple[np.ndarray, np.ndarray]]:
    """Row combinations of exactly ``size`` whose joint support lies in ``(0, k)``.

    The support of a combination is the popcount of the AND of its rows.
    Yields ``(combinations, supports)`` blocks: an ``(n, size)`` ``int64``
    array of row indices (ascending within each combination) and the support
    of each.  Blocks arrive in lexicographic order of the combinations.
    Empty rows and prefixes whose AND is empty are pruned: every superset of
    an empty record set is empty as well, so it cannot be rare.  The last two
    positions of a combination are scored together, one :func:`pair_supports`
    block per ``size - 2`` prefix, so the common ``size <= 2`` check is a
    handful of array passes whatever the number of rows.
    """
    counts = popcount_rows(matrix)
    occupied = np.flatnonzero(counts)
    if size == 1:
        rare = occupied[counts[occupied] < k]
        if rare.size:
            yield rare[:, None], counts[rare]
        return
    yield from _rare_extensions(matrix[occupied], occupied, (), None, 0, size, k)


def _rare_extensions(
    rows: np.ndarray,
    index: np.ndarray,
    prefix: tuple[int, ...],
    bits: np.ndarray | None,
    start: int,
    remaining: int,
    k: int,
) -> Iterator[tuple[np.ndarray, np.ndarray]]:
    """Extend ``prefix`` (whose AND is ``bits``) by ``remaining`` rows from ``start`` on."""
    if remaining == 2:
        block = rows[start:] if bits is None else rows[start:] & bits
        supports = pair_supports(block)
        first, second = np.nonzero(np.triu((supports > 0) & (supports < k), 1))
        if first.size:
            combinations = np.empty((first.size, len(prefix) + 2), dtype=np.int64)
            if prefix:
                combinations[:, : len(prefix)] = prefix
            combinations[:, -2] = index[start + first]
            combinations[:, -1] = index[start + second]
            yield combinations, supports[first, second]
        return
    for position in range(start, len(rows) - remaining + 1):
        narrowed = rows[position] if bits is None else bits & rows[position]
        if narrowed.any():
            yield from _rare_extensions(
                rows,
                index,
                prefix + (int(index[position]),),
                narrowed,
                position + 1,
                remaining - 1,
                k,
            )


def indices_of(bits: np.ndarray) -> np.ndarray:
    """The sorted bit positions set in ``bits`` (inverse of packing)."""
    # Force a little-endian byte view so bit i of each word unpacks to
    # position i regardless of the host's endianness.
    flat = np.unpackbits(
        np.ascontiguousarray(bits, dtype="<u8").view(np.uint8), bitorder="little"
    )
    return np.flatnonzero(flat)
