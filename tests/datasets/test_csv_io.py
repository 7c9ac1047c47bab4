"""Tests for CSV dataset input/output."""

import pytest

from repro.datasets import (
    Attribute,
    Schema,
    load_csv,
    read_csv_text,
    save_csv,
    write_csv_text,
    toy_rt_dataset,
)
from repro.exceptions import DatasetError

CSV_TEXT = """Age,Education,Items
25,Bachelors,bread milk
30,Masters,beer
41,HS-grad,bread beer wine
"""


class TestReadCsv:
    def test_schema_inference(self):
        dataset = read_csv_text(CSV_TEXT)
        assert dataset.schema["Age"].is_numeric
        assert dataset.schema["Education"].is_categorical
        assert dataset.schema["Items"].is_transaction
        assert dataset[0]["Items"] == frozenset({"bread", "milk"})
        assert dataset[0]["Age"] == 25

    def test_forced_columns_override_inference(self):
        text = "Code,Items\n12,a\n34,b\n"
        dataset = read_csv_text(
            text, transaction_columns=["Items"], numeric_columns=[]
        )
        assert dataset.schema["Items"].is_transaction
        # Code is inferred numeric because all values parse as numbers.
        assert dataset.schema["Code"].is_numeric

    def test_single_item_cells_need_forcing(self):
        text = "Items\napple\nbanana\n"
        inferred = read_csv_text(text)
        assert inferred.schema["Items"].is_categorical
        forced = read_csv_text(text, transaction_columns=["Items"])
        assert forced.schema["Items"].is_transaction
        assert forced[0]["Items"] == frozenset({"apple"})

    def test_explicit_schema_must_match_header(self):
        schema = Schema([Attribute.numeric("Other")])
        with pytest.raises(DatasetError):
            read_csv_text("Age\n1\n", schema=schema)

    def test_empty_input_rejected(self):
        with pytest.raises(DatasetError):
            read_csv_text("")

    def test_field_count_mismatch_reports_line(self):
        with pytest.raises(DatasetError, match="line 3"):
            read_csv_text("A,B\n1,2\n3\n")

    def test_empty_cells_become_none(self):
        dataset = read_csv_text("Age,City\n25,\n,Athens\n")
        assert dataset[0]["City"] is None
        assert dataset[1]["Age"] is None


class TestWriteCsv:
    def test_round_trip_preserves_dataset(self, tmp_path):
        original = toy_rt_dataset()
        path = save_csv(original, tmp_path / "toy.csv")
        loaded = load_csv(path, transaction_columns=["Items"])
        assert loaded.schema.names == original.schema.names
        assert len(loaded) == len(original)
        for a, b in zip(loaded, original):
            assert a["Age"] == b["Age"]
            assert a["Education"] == b["Education"]
            assert a["Items"] == b["Items"]

    def test_write_formats_transaction_cells_sorted(self):
        dataset = read_csv_text(CSV_TEXT)
        text = write_csv_text(dataset)
        assert "bread milk" in text
        assert "beer bread wine" in text  # sorted item order

    def test_write_formats_integral_floats_without_decimal(self):
        dataset = read_csv_text("X\n1.0\n2.5\n")
        text = write_csv_text(dataset)
        lines = text.strip().splitlines()
        assert lines[1] == "1"
        assert lines[2] == "2.5"

    def test_load_missing_file_raises(self, tmp_path):
        with pytest.raises(DatasetError):
            load_csv(tmp_path / "missing.csv")

    def test_load_non_utf8_file_raises_a_dataset_error_naming_the_file(
        self, tmp_path
    ):
        path = tmp_path / "latin1.csv"
        path.write_bytes("City,Age\nZürich,30\n".encode("latin-1"))
        with pytest.raises(DatasetError, match="latin1.csv"):
            load_csv(path)

    def test_load_skips_a_utf8_byte_order_mark(self, tmp_path):
        path = tmp_path / "bom.csv"
        path.write_bytes("Age,City\n30,Zürich\n".encode("utf-8-sig"))
        dataset = load_csv(path)
        assert list(dataset.schema.names) == ["Age", "City"]
        assert dataset.schema["Age"].is_numeric
        assert dataset.column("City") == ["Zürich"]
