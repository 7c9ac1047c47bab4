"""Tokenized views of relational (single-valued) attributes.

The relational twin of :class:`~repro.columnar.column.TransactionColumn`:
one relational attribute becomes a dense ``int32`` code per record over the
column's distinct-value vocabulary, so the per-record hot loops — NCP lookup
tables, equivalence-class grouping, greedy cluster scoring — collapse into
``np.take`` / ``np.unique`` / comparison passes over flat arrays.

* :class:`CategoricalColumn` — codes over the distinct cell values in
  first-seen order.  Values keep their Python identity semantics: two cells
  receive the same code exactly when they are equal as dictionary keys,
  which is the grouping rule ``Dataset.group_by`` and the per-cell metric
  memos already use (``25`` and ``25.0`` share a code, ``None`` gets its
  own).
* :class:`NumericColumn` — a :class:`CategoricalColumn` plus a ``float64``
  view with ``NaN`` where a cell is missing or holds a non-numeric
  (generalized) label, ready for ``fmin``/``fmax`` span kernels.

:meth:`CategoricalColumn.from_images` builds a column from a code array and
one image per code, normalising each distinct image once; the relational
algorithms publish their outputs this way, without copying or re-encoding a
row.  :meth:`CategoricalColumn.remap` rewrites a column through per-code
images, one table per record group.

Like the transaction column, a relational column is a snapshot:
:meth:`repro.datasets.dataset.Dataset.columnar` caches one per attribute and
drops it on any dataset mutation.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Iterable, Sequence

import numpy as np

if TYPE_CHECKING:  # pragma: no cover - import cycle guard (dataset ↔ columnar)
    from repro.datasets.attributes import Attribute
    from repro.datasets.dataset import Dataset


def mixed_radix_keys(
    columns: Iterable[tuple[np.ndarray, int]], n_records: int
) -> np.ndarray:
    """Per-record keys, equal exactly when every ``(codes, radix)`` column agrees.

    Keys are renumbered densely whenever the next column could overflow ``int64``.
    """
    keys = np.zeros(n_records, dtype=np.int64)
    span = 1
    for codes, radix in columns:
        if span * radix > 2**63:
            distinct, keys = np.unique(keys, return_inverse=True)
            span = len(distinct)
        keys = keys * radix + codes
        span *= radix
    return keys


def class_sizes(keys: np.ndarray) -> np.ndarray:
    """Sizes of the classes of equal ``keys``, in key order."""
    return np.unique(keys, return_counts=True)[1]


def _interchangeable(first: object, other: object) -> bool:
    """Whether ``other`` reads exactly as ``first`` (same type and ``repr``)."""
    return first is other or (type(first) is type(other) and repr(first) == repr(other))


class CategoricalColumn:
    """Dense code-per-record view of one relational attribute."""

    __slots__ = ("attribute", "codes", "values", "_index", "_cells", "_string_codes")

    def __init__(
        self,
        values: tuple,
        codes: np.ndarray,
        attribute: str = "",
        cells: list | None = None,
    ) -> None:
        #: Distinct cell values in code order (``values[code]`` inverts codes).
        self.values = values
        #: ``int32`` code of every record's cell, parallel to the records.
        self.codes = codes
        self.attribute = attribute
        self._index: dict | None = None
        #: Raw per-record cell values (shared references): dictionary-key
        #: equality can collapse cells whose string forms differ (``25`` vs
        #: ``25.0``), so ``string_codes()`` and :meth:`cells` read them.
        #: ``None`` when every code stands for one object, ``values[code]``.
        self._cells = cells
        self._string_codes: tuple[np.ndarray, tuple[str, ...]] | None = None

    @classmethod
    def from_dataset(
        cls, dataset: "Dataset", attribute: str
    ) -> "CategoricalColumn":
        """Tokenize the cells of ``attribute`` in first-seen order."""
        cells = dataset.column(attribute)
        index: dict = {}
        codes = np.empty(len(cells), dtype=np.int32)
        for position, value in enumerate(cells):
            code = index.get(value)
            if code is None:
                code = len(index)
                index[value] = code
            codes[position] = code
        column = cls(tuple(index), codes, attribute=attribute, cells=cells)
        column._index = index
        return column

    @staticmethod
    def from_images(
        spec: "Attribute", images: Sequence, codes: np.ndarray
    ) -> "CategoricalColumn":
        """The column of ``spec`` whose record ``r`` holds ``images[codes[r]]``.

        Each image some record uses is normalised once, as the attribute
        stores it (``_normalise_cell``; a string or ``None`` once per
        distinct value, any other image once per code), and codes, values
        and string-identity codes are numbered in first-seen record order.
        So the result equals :meth:`from_dataset` over the written cells,
        and it is a :class:`NumericColumn` for a numeric ``spec``.  Its
        cells are decoded only when read (:meth:`cells`).
        """
        from repro.datasets.dataset import _normalise_cell

        used, first, inverse = np.unique(codes, return_index=True, return_inverse=True)
        order = np.argsort(first)
        used_images = used.tolist()
        normalised: dict = {}
        index: dict = {}
        firsts: list = []
        strings: dict[str, int] = {}
        objects: list = [None] * len(used_images)
        value_codes = np.empty(len(used_images), dtype=np.int32)
        string_codes = np.empty(len(used_images), dtype=np.int64)
        exact = True
        for position in order.tolist():
            image = images[used_images[position]]
            if image is None or type(image) is str:
                if image not in normalised:
                    normalised[image] = _normalise_cell(spec, image)
                cell = normalised[image]
            else:
                cell = _normalise_cell(spec, image)
            code = index.setdefault(cell, len(index))
            if code == len(firsts):
                firsts.append(cell)
            elif exact:
                # An equal cell of another type or sign (25 and 25.0) shares
                # the code: values[code] would no longer decode it.
                exact = _interchangeable(firsts[code], cell)
            objects[position] = cell
            value_codes[position] = code
            string_codes[position] = (
                -1 if cell is None else strings.setdefault(str(cell), len(strings))
            )
        string_codes[string_codes < 0] = len(strings)
        column_type = NumericColumn if spec.is_numeric else CategoricalColumn
        column = column_type(
            tuple(firsts),
            value_codes[inverse],
            attribute=spec.name,
            cells=None if exact else [objects[position] for position in inverse.tolist()],
        )
        column._index = index
        column._string_codes = (string_codes[inverse], tuple(strings))
        return column

    def remap(
        self, images: Sequence[Sequence], groups: np.ndarray | None = None
    ) -> "CategoricalColumn":
        """This column with every cell replaced by its image.

        ``images`` holds one table per record group, each with one entry per
        code (per entry of :attr:`values`): the value the cell publishes as.
        Record ``r`` is rewritten through table ``groups[r]`` (every record
        through table 0 when ``groups`` is omitted).  Only the images some
        record uses are read, and the result is built by :meth:`from_images`,
        so it equals :meth:`from_dataset` over the rewritten cells.  A cell
        left as it is keeps its identity only when its attribute is not
        remapped at all: codes merge ``25`` and ``25.0``.
        """
        from repro.datasets.attributes import Attribute

        spec = (Attribute.numeric if isinstance(self, NumericColumn) else Attribute.categorical)(
            self.attribute
        )
        if groups is None:
            return self.from_images(spec, images[0], self.codes)
        width = len(self.values)
        pairs = np.asarray(groups, dtype=np.int64) * width + self.codes
        used, inverse = np.unique(pairs, return_inverse=True)
        tables, codes = np.divmod(used, width)
        flat = [images[table][code] for table, code in zip(tables.tolist(), codes.tolist())]
        return self.from_images(spec, flat, inverse)

    def __repr__(self) -> str:
        return (
            f"{type(self).__name__}(attribute={self.attribute!r}, "
            f"records={self.n_records}, distinct={len(self.values)})"
        )

    @property
    def n_records(self) -> int:
        return len(self.codes)

    def code_of(self, value: object) -> int | None:
        """The code of ``value`` (``None`` for values absent from the column)."""
        if self._index is None:
            self._index = {value: code for code, value in enumerate(self.values)}
        return self._index.get(value)

    def cells(self) -> list:
        """Every record's cell, in record order (a new list)."""
        if self._cells is not None:
            return list(self._cells)
        values = self.values
        return [values[code] for code in self.codes.tolist()]

    def take(self, table: np.ndarray) -> np.ndarray:
        """Gather a per-code lookup ``table`` into a per-record array."""
        return np.take(table, self.codes)

    def string_codes(self) -> tuple[np.ndarray, tuple[str, ...]]:
        """Per-record codes over ``str(value)`` identity (cached).

        The clustering and merge cost models compare categorical cells as
        strings and skip missing ones; this view re-keys the cells on their
        string form (``str`` identity is neither finer nor coarser than the
        dictionary-key identity of :attr:`codes`: ``"25"`` and ``25``
        stringify alike, ``25`` and ``25.0`` do not) and sends ``None`` cells
        to the sentinel code ``len(labels)``.  Returns ``(codes, labels)``
        with ``labels`` the distinct strings in code order.
        """
        if self._string_codes is None:
            index: dict[str, int] = {}
            cells = (
                self._cells
                if self._cells is not None
                else (self.values[code] for code in self.codes)
            )
            raw = np.empty(len(self.codes), dtype=np.int64)
            missing: list[int] = []
            for position, value in enumerate(cells):
                if value is None:
                    missing.append(position)
                    raw[position] = -1
                else:
                    raw[position] = index.setdefault(str(value), len(index))
            raw[missing] = len(index)
            self._string_codes = (raw, tuple(index))
        return self._string_codes


class NumericColumn(CategoricalColumn):
    """A categorical code view plus the ``float64`` values of a numeric column.

    ``numbers[r]`` is the cell of record ``r`` as a float, or ``NaN`` when the
    cell is missing (``None``) or a non-numeric generalized label such as
    ``"[20-40]"`` — the representation the span kernels (``np.fmin`` /
    ``np.fmax``, which skip ``NaN``) consume directly.
    """

    __slots__ = ("numbers",)

    def __init__(
        self,
        values: tuple,
        codes: np.ndarray,
        attribute: str = "",
        cells: list | None = None,
        numbers: np.ndarray | None = None,
    ) -> None:
        super().__init__(values, codes, attribute=attribute, cells=cells)
        if numbers is not None:
            # A precomputed float view (e.g. a zero-copy shared-memory
            # attachment — see repro.columnar.shared) replaces the derivation.
            self.numbers = numbers
            return
        per_code = np.fromiter(
            (
                float(value) if isinstance(value, (int, float)) else np.nan
                for value in values
            ),
            dtype=np.float64,
            count=len(values),
        )
        self.numbers = (
            np.take(per_code, codes) if len(values) else np.full(len(codes), np.nan)
        )

    @classmethod
    def from_dataset(cls, dataset: "Dataset", attribute: str) -> "NumericColumn":
        base = CategoricalColumn.from_dataset(dataset, attribute)
        column = cls(base.values, base.codes, attribute=attribute, cells=base._cells)
        column._index = base._index
        return column
