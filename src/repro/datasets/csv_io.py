"""CSV input/output for RT-datasets.

SECRETA's Dataset Editor loads datasets "provided in a Comma-Separated Values
(CSV) format".  The reproduction uses the same convention:

* the first line holds the attribute names,
* relational cells hold a single value,
* transaction (set-valued) cells hold the record's items separated by an
  *item separator* (a space by default), e.g. ``"bread milk beer"``.

Schema information that CSV cannot express (which columns are set-valued,
which are numeric) is either passed explicitly or inferred from the data.
"""

from __future__ import annotations

import csv
import io
from pathlib import Path
from typing import Iterable, Sequence

from repro.datasets.attributes import Attribute, AttributeKind, Schema
from repro.datasets.dataset import Dataset
from repro.exceptions import DatasetError

#: Default separator between the items of one transaction cell.
DEFAULT_ITEM_SEPARATOR = " "


def _looks_numeric(values: Iterable[str]) -> bool:
    """Whether every non-empty string in ``values`` parses as a number."""
    seen_any = False
    for value in values:
        if value == "" or value is None:
            continue
        seen_any = True
        try:
            float(value)
        except ValueError:
            return False
    return seen_any


def _looks_transactional(values: Iterable[str], item_separator: str) -> bool:
    """Whether some non-empty value in ``values`` contains multiple items."""
    for value in values:
        if value and item_separator in value.strip():
            return True
    return False


def infer_schema(
    header: Sequence[str],
    rows: Sequence[Sequence[str]],
    transaction_columns: Sequence[str] | None = None,
    numeric_columns: Sequence[str] | None = None,
    item_separator: str = DEFAULT_ITEM_SEPARATOR,
) -> Schema:
    """Infer a :class:`Schema` from raw CSV strings.

    Columns named in ``transaction_columns`` / ``numeric_columns`` are forced
    to that kind; the remaining columns are numeric if every value parses as a
    number, transactional if any cell contains the item separator, and
    categorical otherwise.
    """
    forced_transaction = set(transaction_columns or ())
    forced_numeric = set(numeric_columns or ())
    unknown = (forced_transaction | forced_numeric) - set(header)
    if unknown:
        raise DatasetError(f"unknown columns referenced: {sorted(unknown)}")

    attributes = []
    for position, name in enumerate(header):
        column = [row[position] for row in rows if position < len(row)]
        if name in forced_transaction:
            kind = AttributeKind.TRANSACTION
        elif name in forced_numeric:
            kind = AttributeKind.NUMERIC
        elif _looks_numeric(column):
            kind = AttributeKind.NUMERIC
        elif _looks_transactional(column, item_separator):
            kind = AttributeKind.TRANSACTION
        else:
            kind = AttributeKind.CATEGORICAL
        attributes.append(Attribute(name, kind))
    return Schema(attributes)


def _rows_to_dataset(
    header: Sequence[str],
    rows: Sequence[Sequence[str]],
    schema: Schema,
    item_separator: str,
    name: str,
) -> Dataset:
    dataset = Dataset(schema, name=name)
    for line_number, row in enumerate(rows, start=2):
        if len(row) != len(header):
            raise DatasetError(
                f"line {line_number}: expected {len(header)} fields, got {len(row)}"
            )
        values = {}
        for position, column in enumerate(header):
            cell = row[position]
            attribute = schema[column]
            if attribute.is_transaction:
                items = [item for item in cell.split(item_separator) if item]
                values[column] = items
            elif cell == "":
                values[column] = None
            else:
                values[column] = cell
        dataset.append(values)
    return dataset


def read_csv_text(
    text: str,
    name: str = "dataset",
    schema: Schema | None = None,
    transaction_columns: Sequence[str] | None = None,
    numeric_columns: Sequence[str] | None = None,
    delimiter: str = ",",
    item_separator: str = DEFAULT_ITEM_SEPARATOR,
) -> Dataset:
    """Parse CSV text into a :class:`Dataset`.

    If ``schema`` is given it is used verbatim (its names must match the CSV
    header); otherwise the schema is inferred, honouring
    ``transaction_columns`` and ``numeric_columns``.
    """
    reader = csv.reader(io.StringIO(text), delimiter=delimiter)
    rows = [row for row in reader if row]
    if not rows:
        raise DatasetError("CSV input is empty")
    header = [column.strip() for column in rows[0]]
    body = rows[1:]
    if schema is None:
        schema = infer_schema(
            header,
            body,
            transaction_columns=transaction_columns,
            numeric_columns=numeric_columns,
            item_separator=item_separator,
        )
    else:
        if list(schema.names) != list(header):
            raise DatasetError(
                f"schema columns {schema.names} do not match CSV header {header}"
            )
    return _rows_to_dataset(header, body, schema, item_separator, name)


def load_csv(
    path: str | Path,
    schema: Schema | None = None,
    transaction_columns: Sequence[str] | None = None,
    numeric_columns: Sequence[str] | None = None,
    delimiter: str = ",",
    item_separator: str = DEFAULT_ITEM_SEPARATOR,
) -> Dataset:
    """Load a dataset from a UTF-8 CSV file. See :func:`read_csv_text`.

    A leading byte-order mark is skipped, so it never becomes part of the
    first attribute name.
    """
    path = Path(path)
    try:
        text = path.read_text(encoding="utf-8-sig")
    except OSError as error:
        raise DatasetError(f"cannot read dataset file {path}: {error}") from error
    except UnicodeDecodeError as error:
        raise DatasetError(f"dataset file {path} is not UTF-8: {error}") from error
    return read_csv_text(
        text,
        name=path.stem,
        schema=schema,
        transaction_columns=transaction_columns,
        numeric_columns=numeric_columns,
        delimiter=delimiter,
        item_separator=item_separator,
    )


def _format_cell(attribute: Attribute, value, item_separator: str) -> str:
    if attribute.is_transaction:
        return item_separator.join(sorted(value)) if value else ""
    if value is None:
        return ""
    if isinstance(value, float) and value.is_integer():
        return str(int(value))
    return str(value)


def write_csv_text(
    dataset: Dataset,
    delimiter: str = ",",
    item_separator: str = DEFAULT_ITEM_SEPARATOR,
) -> str:
    """Serialise a dataset to CSV text (header + one line per record)."""
    buffer = io.StringIO()
    writer = csv.writer(buffer, delimiter=delimiter, lineterminator="\n")
    writer.writerow(dataset.schema.names)
    for record in dataset:
        writer.writerow(
            [
                _format_cell(attribute, record[attribute.name], item_separator)
                for attribute in dataset.schema
            ]
        )
    return buffer.getvalue()


def save_csv(
    dataset: Dataset,
    path: str | Path,
    delimiter: str = ",",
    item_separator: str = DEFAULT_ITEM_SEPARATOR,
) -> Path:
    """Write a dataset to a CSV file and return the path."""
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(
        write_csv_text(dataset, delimiter=delimiter, item_separator=item_separator),
        encoding="utf-8",
    )
    return path
