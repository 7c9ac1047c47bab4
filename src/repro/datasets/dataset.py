"""The RT-dataset model used throughout the SECRETA reproduction.

A :class:`Dataset` is a table whose schema may mix relational (single-valued)
and transaction (set-valued) attributes — what the SECRETA paper calls an
*RT-dataset*.  Purely relational and purely transactional datasets are the two
degenerate cases of the same model, so a single class serves all nine
anonymization algorithms.

Records are first-class (:class:`Record`): datasets built from rows (a
CSV load, a generator, an editor) store them, and the relational algorithms
group, generalize and merge them, while column views are derived on demand.
Three kinds of dataset are columns first and build their records only when
something reads them (:meth:`Dataset.from_columns`): a dataset that crossed
a process or checkpoint boundary, a shared-memory view, and a transaction
algorithm's output (:meth:`Dataset.with_column`).  Their length and
fingerprint are answered from the columns.
"""

from __future__ import annotations

import copy as _copy
import hashlib
import re
import threading
from typing import TYPE_CHECKING, Any, Callable, Iterable, Iterator, Mapping, Sequence

import numpy as np

from repro.datasets.attributes import Attribute, AttributeKind, Schema
from repro.exceptions import DatasetError, SchemaError

if TYPE_CHECKING:  # pragma: no cover - import cycle guard (dataset ↔ columnar)
    from repro.columnar.column import TransactionColumn

#: The type of a single relational cell (categorical label or number).
RelationalValue = Any

#: The type of a transaction cell: an immutable set of item labels.
ItemSet = frozenset

#: Strings accepted in numeric columns even though they are not numbers:
#: generalized interval labels ("[20-40]"), group labels ("{a..b}"), the
#: generic root "*" and the suppression marker.  Anonymization coarsens a
#: numeric domain into such labels while the schema keeps calling the
#: attribute numeric (the original, truthful domain).
_GENERALIZED_NUMERIC = re.compile(
    r"^(\*|†|\[.+-.+\]|\{.+\})$"
)


class Record:
    """One row of an RT-dataset.

    Relational attribute values are stored as-is (strings or numbers);
    transaction attribute values are stored as ``frozenset`` of item labels.
    Records are owned by their dataset; mutate them through
    :class:`Dataset` / :class:`~repro.datasets.editor.DatasetEditor` so that
    schema consistency is preserved.
    """

    __slots__ = ("_values",)

    def __init__(self, values: Mapping[str, Any]):
        self._values: dict[str, Any] = dict(values)

    def __getitem__(self, name: str) -> Any:
        try:
            return self._values[name]
        except KeyError:
            raise SchemaError(f"record has no attribute {name!r}") from None

    def __contains__(self, name: object) -> bool:
        return name in self._values

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Record):
            return NotImplemented
        return self._values == other._values

    def __repr__(self) -> str:
        return f"Record({self._values!r})"

    def get(self, name: str, default: Any = None) -> Any:
        return self._values.get(name, default)

    def items(self) -> Iterable[tuple[str, Any]]:
        return self._values.items()

    def as_dict(self) -> dict[str, Any]:
        """A copy of the record's values keyed by attribute name."""
        return dict(self._values)

    def values_for(self, names: Sequence[str]) -> tuple:
        """The record's values for ``names``, in the given order."""
        return tuple(self._values[name] for name in names)

    # Internal mutators used by Dataset -------------------------------------
    def _set(self, name: str, value: Any) -> None:
        self._values[name] = value

    def _delete(self, name: str) -> None:
        self._values.pop(name, None)

    def _rename(self, old_name: str, new_name: str) -> None:
        if old_name in self._values:
            self._values[new_name] = self._values.pop(old_name)


def _normalise_cell(attribute: Attribute, value: Any) -> Any:
    """Coerce ``value`` to the storage form required by ``attribute``."""
    if attribute.is_transaction:
        if value is None:
            return frozenset()
        if isinstance(value, str):
            raise DatasetError(
                f"transaction attribute {attribute.name!r} expects an iterable "
                f"of items, got the string {value!r}; split it first"
            )
        return frozenset(str(item) for item in value)
    if attribute.is_numeric:
        if value is None or value == "":
            return None
        if isinstance(value, bool):
            raise DatasetError(
                f"numeric attribute {attribute.name!r} cannot store booleans"
            )
        if isinstance(value, (int, float)):
            return value
        try:
            as_float = float(value)
        except (TypeError, ValueError):
            if isinstance(value, str) and _GENERALIZED_NUMERIC.match(value.strip()):
                return value.strip()
            raise DatasetError(
                f"numeric attribute {attribute.name!r} cannot store {value!r}"
            ) from None
        return int(as_float) if as_float.is_integer() else as_float
    # Categorical: keep strings; generalized interval labels are strings too.
    if value is None:
        return None
    return str(value)


#: Serialises the first read of a pending dataset's records.
_MATERIALIZING = threading.Lock()


def _narrowest(array: np.ndarray) -> np.ndarray:
    """Non-negative integers in the narrowest unsigned dtype that holds them."""
    top = int(array.max()) if len(array) else 0
    return array.astype(np.min_scalar_type(top))


def _csr_itemsets(column: "TransactionColumn") -> list[frozenset]:
    """The per-record itemsets of a transaction column's CSR layout."""
    items = column.vocabulary.items
    labels = [items[token] for token in column.tokens.tolist()]
    bounds = column.indptr.tolist()
    return [frozenset(labels[start:end]) for start, end in zip(bounds, bounds[1:])]


class Dataset:
    """An in-memory RT-dataset: a schema plus an ordered list of records."""

    def __init__(
        self,
        schema: Schema | Iterable[Attribute],
        records: Iterable[Mapping[str, Any]] = (),
        name: str = "dataset",
    ):
        self._schema = schema if isinstance(schema, Schema) else Schema(schema)
        self.name = name
        self._records: list[Record] = []
        #: attribute -> cached TransactionColumn; dropped on any mutation.
        self._columnar: dict[str, Any] = {}
        #: Monotonic mutation counter; every mutator bumps it, so cached
        #: derivations (the content fingerprint today, MVCC snapshots later)
        #: can tell whether they are still current.
        self._version = 0
        #: ``(version, digest)`` cache behind :meth:`fingerprint`.
        self._fingerprint: tuple[int, str] | None = None
        for row in records:
            self.append(row)

    # -- construction helpers ------------------------------------------------
    @classmethod
    def from_rows(
        cls,
        schema: Schema | Iterable[Attribute],
        rows: Iterable[Sequence[Any]],
        name: str = "dataset",
    ) -> "Dataset":
        """Build a dataset from positional rows aligned with the schema order."""
        schema = schema if isinstance(schema, Schema) else Schema(schema)
        names = schema.names
        dicts = []
        for row in rows:
            row = list(row)
            if len(row) != len(names):
                raise DatasetError(
                    f"row has {len(row)} values but schema has {len(names)} attributes"
                )
            dicts.append(dict(zip(names, row)))
        return cls(schema, dicts, name=name)

    # -- basic container protocol ---------------------------------------------
    def __len__(self) -> int:
        pending = self.__dict__.get("_pending")
        return pending[0] if pending is not None else len(self._records)

    def __iter__(self) -> Iterator[Record]:
        return iter(self._records)

    def __getitem__(self, index: int) -> Record:
        return self._records[index]

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Dataset):
            return NotImplemented
        return self._schema == other._schema and self._records == other._records

    def __repr__(self) -> str:
        return (
            f"Dataset(name={self.name!r}, records={len(self)}, "
            f"attributes={self._schema.names})"
        )

    @classmethod
    def from_columns(
        cls,
        schema: Schema,
        n_records: int,
        cells: Mapping[str, list],
        columns: Mapping[str, Any],
        name: str = "dataset",
        version: int = 0,
    ) -> "Dataset":
        """A dataset over prebuilt columns whose records are built on first read.

        ``cells`` holds every relational attribute's cells in record order
        and ``columns`` seeds the columnar cache; it must hold the
        :class:`~repro.columnar.column.TransactionColumn` of every
        transaction attribute, whose CSR layout the itemsets are decoded
        from.  The shared-memory :func:`~repro.columnar.shared.attach` and
        unpickling both build datasets this way.
        """
        dataset = cls.__new__(cls)
        dataset._adopt_columns(schema, n_records, cells, columns, name, version)
        return dataset

    def _adopt_columns(
        self,
        schema: Schema,
        n_records: int,
        cells: Mapping[str, list],
        columns: Mapping[str, Any],
        name: str,
        version: int,
    ) -> None:
        self._schema = schema
        self.name = name
        self._version = version
        self._columnar = dict(columns)
        self._fingerprint = None
        #: ``(n_records, {attribute: cells or TransactionColumn})`` until the
        #: first read of ``_records`` materializes the rows (:meth:`__getattr__`).
        self._pending = (
            n_records,
            {
                attribute.name: (
                    columns[attribute.name]
                    if attribute.is_transaction
                    else cells[attribute.name]
                )
                for attribute in schema
            },
        )

    def __getattr__(self, name: str) -> Any:
        # Reached only when normal lookup fails: a dataset built from columns
        # has no ``_records`` until something reads them, so a materialized
        # dataset never pays for this hook.
        if name == "_records":
            with _MATERIALIZING:
                return self._materialize()
        raise AttributeError(
            f"{type(self).__name__!r} object has no attribute {name!r}"
        )

    def _materialize(self) -> list[Record]:
        """Build the pending records from their columns, once.

        Runs under ``_MATERIALIZING``: several threads may read one dataset,
        and those that lose the race find the records already built.
        """
        state = self.__dict__
        if "_records" in state:
            return state["_records"]
        if "_pending" not in state:
            raise AttributeError(
                f"{type(self).__name__!r} object has no attribute '_records'"
            )
        n_records, sources = state["_pending"]
        names = list(sources)
        per_attribute = [
            source if isinstance(source, list) else _csr_itemsets(source)
            for source in sources.values()
        ]
        if names:
            records = [Record(dict(zip(names, row))) for row in zip(*per_attribute)]
        else:
            records = [Record({}) for _ in range(n_records)]
        self._records = records
        del state["_pending"]
        return records

    # -- pickling -------------------------------------------------------------
    def __getstate__(self) -> dict:
        # A dataset pickles as its columns, never per row: each transaction
        # attribute as its (usually already cached) CSR column in the
        # narrowest unsigned dtypes, each relational attribute as its plain
        # cell list, so cell types survive exactly (25 vs 25.0, -0.0, None).
        # Unpickling seeds the columnar cache and leaves the records pending
        # until read; re-pickling a pending dataset re-emits its columns
        # without building the rows.
        cells: dict[str, list] = {}
        csr: dict[str, tuple] = {}
        for attribute in self._schema:
            name = attribute.name
            if attribute.is_transaction:
                column = self.columnar(name)
                csr[name] = (
                    column.vocabulary.items,
                    _narrowest(column.indptr),
                    _narrowest(column.tokens),
                )
            else:
                cells[name] = self.column(name)
        return {
            "schema": self._schema,
            "name": self.name,
            "version": self._version,
            "n_records": len(self),
            "cells": cells,
            "csr": csr,
        }

    def __setstate__(self, state: dict) -> None:
        from repro.columnar import ItemVocabulary, TransactionColumn

        columns = {
            name: TransactionColumn(
                ItemVocabulary(items),
                indptr.astype(np.int64),
                tokens.astype(np.int32),
                attribute=name,
            )
            for name, (items, indptr, tokens) in state["csr"].items()
        }
        self._adopt_columns(
            state["schema"],
            state["n_records"],
            state["cells"],
            columns,
            state["name"],
            state["version"],
        )

    # -- accessors -------------------------------------------------------------
    @property
    def schema(self) -> Schema:
        return self._schema

    @property
    def records(self) -> list[Record]:
        """The dataset's records (the live list; treat as read-only)."""
        return self._records

    @property
    def is_empty(self) -> bool:
        return len(self) == 0

    @property
    def is_rt_dataset(self) -> bool:
        """Whether the dataset mixes relational and transaction attributes."""
        return self._schema.is_rt_schema()

    @property
    def version(self) -> int:
        """Monotonic mutation counter (0 for a freshly built dataset)."""
        return self._version

    def fingerprint(self) -> str:
        """A cached content digest of the dataset, stable across processes.

        The digest covers the schema (names, kinds, quasi-identifier flags)
        and every cell, computed over the columnar views so it shares their
        cost model: ``int32`` code arrays plus the distinct cell values.
        Hash-randomised structures never leak in — transaction tokens are
        re-sorted within each record (their per-row order is ``frozenset``
        iteration order, which varies with ``PYTHONHASHSEED``) and distinct
        values are walked in code order, which is first-seen record order.
        The result is identical for a shared-memory view and its original,
        so checkpoint keys agree across execution modes.

        Any mutation bumps :attr:`version` and invalidates the cache; the
        digest is recomputed lazily on next use.
        """
        cached = self._fingerprint
        if cached is not None and cached[0] == self._version:
            return cached[1]
        n_records = len(self)
        digest = hashlib.blake2b(digest_size=20)
        digest.update(f"dataset-fingerprint:v1:{n_records}".encode())
        for attribute in self._schema:
            digest.update(
                f"\x1e{attribute.name}\x1f{attribute.kind.value}"
                f"\x1f{int(attribute.quasi_identifier)}\x1f".encode()
            )
            if not n_records:
                continue
            column = self.columnar(attribute.name)
            if attribute.is_transaction:
                digest.update("\x1f".join(column.vocabulary.items).encode())
                indptr = np.ascontiguousarray(column.indptr, dtype=np.int64)
                digest.update(indptr.tobytes())
                tokens = np.ascontiguousarray(column.tokens, dtype=np.int64)
                counts = np.diff(indptr)
                record_ids = np.repeat(np.arange(len(counts)), counts)
                order = np.lexsort((tokens, record_ids))
                digest.update(tokens[order].tobytes())
            else:
                codes = np.ascontiguousarray(column.codes, dtype=np.int64)
                digest.update(codes.tobytes())
                for value in column.values:
                    digest.update(f"{type(value).__name__}:{value!r}\x1f".encode())
                string_codes, labels = column.string_codes()
                digest.update(np.ascontiguousarray(string_codes).tobytes())
                digest.update("\x1f".join(labels).encode())
        result = digest.hexdigest()
        self._fingerprint = (self._version, result)
        return result

    def column(self, name: str) -> list[Any]:
        """All values of attribute ``name``, in record order.

        A dataset whose records are pending answers from its columns.
        """
        self._require_attribute(name)
        pending = self.__dict__.get("_pending")
        if pending is not None:
            source = pending[1][name]
            return list(source) if isinstance(source, list) else _csr_itemsets(source)
        return [record[name] for record in self._records]

    def itemset(self, index: int, attribute: str | None = None) -> frozenset:
        """The transaction itemset of record ``index``.

        If ``attribute`` is omitted the dataset must have exactly one
        transaction attribute.
        """
        attribute = attribute or self.single_transaction_attribute()
        value = self._records[index][attribute]
        return value if isinstance(value, frozenset) else frozenset(value)

    def single_transaction_attribute(self) -> str:
        """The name of the dataset's only transaction attribute."""
        names = self._schema.transaction_names
        if len(names) != 1:
            raise SchemaError(
                f"expected exactly one transaction attribute, found {names}"
            )
        return names[0]

    def item_universe(self, attribute: str | None = None) -> set[str]:
        """The set of all items appearing in a transaction attribute.

        When a columnar view of the attribute has been built (see
        :meth:`columnar`) its vocabulary is reused instead of re-scanning
        every record.
        """
        attribute = attribute or self.single_transaction_attribute()
        self._require_attribute(attribute)
        column = self._columnar.get(attribute)
        if column is not None:
            return column.vocabulary.universe()
        universe: set[str] = set()
        for record in self._records:
            universe.update(record[attribute])
        return universe

    def columnar(self, attribute: str | None = None):
        """The cached columnar view of one attribute.

        Transaction attributes yield a
        :class:`~repro.columnar.column.TransactionColumn` (CSR tokens +
        posting bitsets); numeric and categorical relational attributes yield
        a :class:`~repro.columnar.relational.NumericColumn` /
        :class:`~repro.columnar.relational.CategoricalColumn` (one ``int32``
        code per record over the distinct cell values).  Each view is built
        on first use and invalidated by any dataset mutation; the inverted
        index, the metrics and the clustering/merge kernels run on it.  With
        no ``attribute`` the dataset's single transaction attribute is used.
        """
        from repro.columnar import CategoricalColumn, NumericColumn, TransactionColumn

        attribute = attribute or self.single_transaction_attribute()
        self._require_attribute(attribute)
        column = self._columnar.get(attribute)
        if column is None:
            spec = self._schema[attribute]
            if spec.is_transaction:
                column = TransactionColumn.from_dataset(self, attribute)
            elif spec.is_numeric:
                column = NumericColumn.from_dataset(self, attribute)
            else:
                column = CategoricalColumn.from_dataset(self, attribute)
            self._columnar[attribute] = column
        return column

    def domain(self, name: str) -> list[Any]:
        """Sorted distinct values of a relational attribute."""
        self._require_attribute(name)
        attribute = self._schema[name]
        if attribute.is_transaction:
            return sorted(self.item_universe(name))
        values = {value for value in self.columnar(name).values if value is not None}
        try:
            return sorted(values)
        except TypeError:
            return sorted(values, key=str)

    def group_by(self, names: Sequence[str]) -> dict[tuple, list[int]]:
        """Group record indices by their values on ``names``.

        This is the equivalence-class view used by the k-anonymity checks and
        by several algorithms.
        """
        for name in names:
            self._require_attribute(name)
        groups: dict[tuple, list[int]] = {}
        for index, record in enumerate(self._records):
            key = record.values_for(names)
            groups.setdefault(key, []).append(index)
        return groups

    # -- mutation ---------------------------------------------------------------
    def append(self, values: Mapping[str, Any]) -> None:
        """Append a record given as a mapping from attribute name to value."""
        unknown = set(values) - set(self._schema.names)
        if unknown:
            raise SchemaError(f"unknown attributes in record: {sorted(unknown)}")
        normalised: dict[str, Any] = {}
        for attribute in self._schema:
            raw = values.get(attribute.name)
            normalised[attribute.name] = _normalise_cell(attribute, raw)
        self._records.append(Record(normalised))
        self._columnar.clear()
        self._version += 1

    def remove_record(self, index: int) -> None:
        try:
            del self._records[index]
        except IndexError:
            raise DatasetError(f"no record at index {index}") from None
        self._columnar.clear()
        self._version += 1

    def set_value(self, index: int, name: str, value: Any) -> None:
        """Set attribute ``name`` of record ``index`` to ``value``."""
        self._require_attribute(name)
        try:
            record = self._records[index]
        except IndexError:
            raise DatasetError(f"no record at index {index}") from None
        record._set(name, _normalise_cell(self._schema[name], value))
        self._columnar.pop(name, None)
        self._version += 1

    def add_attribute(
        self,
        attribute: Attribute,
        values: Sequence[Any] | None = None,
        default: Any = None,
    ) -> None:
        """Add a column, filling it from ``values`` or with ``default``."""
        if attribute.name in self._schema:
            raise SchemaError(f"attribute {attribute.name!r} already exists")
        if values is not None and len(values) != len(self._records):
            raise DatasetError(
                f"got {len(values)} values for {len(self._records)} records"
            )
        self._schema = self._schema.with_attribute(attribute)
        for position, record in enumerate(self._records):
            raw = values[position] if values is not None else default
            record._set(attribute.name, _normalise_cell(attribute, raw))
        self._columnar.pop(attribute.name, None)
        self._version += 1

    def remove_attribute(self, name: str) -> None:
        """Drop a column from the schema and every record."""
        self._schema = self._schema.without_attribute(name)
        for record in self._records:
            record._delete(name)
        self._columnar.pop(name, None)
        self._version += 1

    def rename_attribute(self, old_name: str, new_name: str) -> None:
        """Rename a column in the schema and every record."""
        self._schema = self._schema.renamed(old_name, new_name)
        for record in self._records:
            record._rename(old_name, new_name)
        self._columnar.pop(old_name, None)
        self._columnar.pop(new_name, None)
        self._version += 1

    # -- transformation -----------------------------------------------------------
    def copy(self, name: str | None = None) -> "Dataset":
        """An independent copy: fresh ``Record`` containers over shared cell values.

        Mutating the copy (or the original) never affects the other; the cell
        values themselves are safe to share because they are immutable
        (strings, numbers, ``frozenset`` itemsets).
        """
        clone = Dataset(self._schema, name=name or self.name)
        clone._records = [Record(record.as_dict()) for record in self._records]
        return clone

    def with_column(
        self, attribute: str, column: "TransactionColumn", name: str | None = None
    ) -> "Dataset":
        """A new dataset whose transaction ``attribute`` holds ``column``.

        Every other cell is this dataset's: the relational cells are shared
        and the other cached columns reused.  The records stay pending until
        something reads them (:meth:`from_columns`).
        """
        if attribute not in self._schema.transaction_names:
            raise SchemaError(f"no transaction attribute {attribute!r}")
        n_records = len(self)
        if column.n_records != n_records:
            raise DatasetError(f"got {column.n_records} itemsets for {n_records} records")
        cells = {
            spec.name: self.column(spec.name)
            for spec in self._schema
            if not spec.is_transaction
        }
        columns = {key: cached for key, cached in self._columnar.items() if key in cells}
        for other in self._schema.transaction_names:
            columns[other] = column if other == attribute else self.columnar(other)
        return Dataset.from_columns(
            self._schema, n_records, cells, columns, name=name or self.name
        )

    def project(self, names: Sequence[str], name: str | None = None) -> "Dataset":
        """A new dataset containing only the attributes in ``names``."""
        attributes = [self._schema[n] for n in names]
        projected = Dataset(Schema(attributes), name=name or f"{self.name}[projected]")
        for record in self._records:
            projected.append({n: record[n] for n in names})
        return projected

    def select(
        self, predicate: Callable[[Record], bool], name: str | None = None
    ) -> "Dataset":
        """A new dataset containing the records for which ``predicate`` holds."""
        selected = Dataset(self._schema, name=name or f"{self.name}[selected]")
        selected._records = [
            Record(record.as_dict()) for record in self._records if predicate(record)
        ]
        return selected

    def subset(self, indices: Sequence[int], name: str | None = None) -> "Dataset":
        """A new dataset containing the records at ``indices`` (in that order)."""
        selected = Dataset(self._schema, name=name or f"{self.name}[subset]")
        try:
            selected._records = [
                Record(self._records[i].as_dict()) for i in indices
            ]
        except IndexError:
            raise DatasetError("subset index out of range") from None
        return selected

    def set_column(self, name: str, values: Sequence[Any]) -> None:
        """Replace every value of attribute ``name``, in record order, in one write.

        Each distinct string (or ``None``) is normalised once; a value that
        cannot be stored raises before any cell changes.
        """
        self._require_attribute(name)
        if len(values) != len(self._records):
            raise DatasetError(
                f"got {len(values)} values for {len(self._records)} records"
            )
        attribute = self._schema[name]
        normalised: dict[str | None, Any] = {}
        cells = []
        for value in values:
            if value is None or type(value) is str:
                if value not in normalised:
                    normalised[value] = _normalise_cell(attribute, value)
                cells.append(normalised[value])
            else:
                cells.append(_normalise_cell(attribute, value))
        for record, cell in zip(self._records, cells):
            record._set(name, cell)
        self._columnar.pop(name, None)
        self._version += 1

    def map_column(self, name: str, transform: Callable[[Any], Any]) -> None:
        """Apply ``transform`` to every value of attribute ``name`` in place."""
        self._require_attribute(name)
        self.set_column(name, [transform(record[name]) for record in self._records])

    def to_rows(self) -> list[list[Any]]:
        """Positional rows aligned with the schema order (deep copies)."""
        names = self._schema.names
        return [
            [_copy.copy(record[name]) for name in names] for record in self._records
        ]

    # -- internal helpers -----------------------------------------------------------
    def _require_attribute(self, name: str) -> None:
        if name not in self._schema:
            raise SchemaError(f"unknown attribute {name!r}")
