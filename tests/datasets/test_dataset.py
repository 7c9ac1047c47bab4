"""Tests for the RT-dataset model."""

import pytest

from repro.datasets import Attribute, Dataset, Schema
from repro.exceptions import DatasetError, SchemaError


@pytest.fixture
def schema() -> Schema:
    return Schema(
        [
            Attribute.numeric("Age"),
            Attribute.categorical("Education"),
            Attribute.transaction("Items"),
        ]
    )


@pytest.fixture
def dataset(schema) -> Dataset:
    rows = [
        {"Age": 25, "Education": "Bachelors", "Items": ["a", "b"]},
        {"Age": 30, "Education": "Masters", "Items": ["b"]},
        {"Age": 25, "Education": "Bachelors", "Items": ["c", "a"]},
    ]
    return Dataset(schema, rows, name="unit")


class TestConstruction:
    def test_append_normalises_transaction_cells_to_frozensets(self, dataset):
        assert dataset[0]["Items"] == frozenset({"a", "b"})
        assert isinstance(dataset[0]["Items"], frozenset)

    def test_append_rejects_unknown_attributes(self, dataset):
        with pytest.raises(SchemaError):
            dataset.append({"Age": 1, "Education": "x", "Items": [], "Oops": 1})

    def test_append_rejects_string_for_transaction(self, schema):
        dataset = Dataset(schema)
        with pytest.raises(DatasetError):
            dataset.append({"Age": 1, "Education": "x", "Items": "a b"})

    def test_numeric_coercion_from_strings(self, schema):
        dataset = Dataset(schema)
        dataset.append({"Age": "42", "Education": "PhD", "Items": []})
        assert dataset[0]["Age"] == 42

    def test_numeric_rejects_garbage(self, schema):
        dataset = Dataset(schema)
        with pytest.raises(DatasetError):
            dataset.append({"Age": "not-a-number", "Education": "PhD", "Items": []})

    def test_from_rows_positional(self, schema):
        dataset = Dataset.from_rows(schema, [[25, "Bachelors", ["a"]]])
        assert dataset[0]["Education"] == "Bachelors"
        with pytest.raises(DatasetError):
            Dataset.from_rows(schema, [[25, "Bachelors"]])

    def test_missing_values_become_none_or_empty(self, schema):
        dataset = Dataset(schema)
        dataset.append({})
        assert dataset[0]["Age"] is None
        assert dataset[0]["Education"] is None
        assert dataset[0]["Items"] == frozenset()


class TestAccessors:
    def test_len_iter_getitem(self, dataset):
        assert len(dataset) == 3
        assert [record["Age"] for record in dataset] == [25, 30, 25]
        assert dataset[1]["Education"] == "Masters"

    def test_column(self, dataset):
        assert dataset.column("Age") == [25, 30, 25]
        with pytest.raises(SchemaError):
            dataset.column("Missing")

    def test_item_universe_and_single_transaction_attribute(self, dataset):
        assert dataset.item_universe() == {"a", "b", "c"}
        assert dataset.single_transaction_attribute() == "Items"

    def test_single_transaction_attribute_requires_exactly_one(self, dataset):
        dataset.remove_attribute("Items")
        with pytest.raises(SchemaError):
            dataset.single_transaction_attribute()

    def test_domain_sorted(self, dataset):
        assert dataset.domain("Age") == [25, 30]
        assert dataset.domain("Education") == ["Bachelors", "Masters"]
        assert dataset.domain("Items") == ["a", "b", "c"]

    def test_group_by_builds_equivalence_classes(self, dataset):
        groups = dataset.group_by(["Age", "Education"])
        assert groups[(25, "Bachelors")] == [0, 2]
        assert groups[(30, "Masters")] == [1]

    def test_is_rt_dataset(self, dataset):
        assert dataset.is_rt_dataset
        relational_only = dataset.project(["Age", "Education"])
        assert not relational_only.is_rt_dataset


class TestMutation:
    def test_set_value(self, dataset):
        dataset.set_value(0, "Age", 99)
        assert dataset[0]["Age"] == 99
        dataset.set_value(0, "Items", ["x", "y"])
        assert dataset[0]["Items"] == frozenset({"x", "y"})

    def test_set_value_bounds_check(self, dataset):
        with pytest.raises(DatasetError):
            dataset.set_value(10, "Age", 1)

    def test_remove_record(self, dataset):
        dataset.remove_record(1)
        assert len(dataset) == 2
        assert dataset.column("Age") == [25, 25]
        with pytest.raises(DatasetError):
            dataset.remove_record(10)

    def test_add_and_remove_attribute(self, dataset):
        dataset.add_attribute(Attribute.categorical("Country"), default="GR")
        assert dataset.column("Country") == ["GR", "GR", "GR"]
        dataset.remove_attribute("Country")
        assert "Country" not in dataset.schema

    def test_add_attribute_with_values_length_mismatch(self, dataset):
        with pytest.raises(DatasetError):
            dataset.add_attribute(Attribute.numeric("X"), values=[1])

    def test_rename_attribute(self, dataset):
        dataset.rename_attribute("Education", "Degree")
        assert dataset[0]["Degree"] == "Bachelors"
        with pytest.raises(SchemaError):
            dataset.column("Education")

    def test_map_column(self, dataset):
        dataset.map_column("Age", lambda v: v + 1)
        assert dataset.column("Age") == [26, 31, 26]


class TestTransformation:
    def test_copy_is_deep_for_records(self, dataset):
        clone = dataset.copy()
        clone.set_value(0, "Age", 1)
        assert dataset[0]["Age"] == 25

    def test_project(self, dataset):
        projected = dataset.project(["Age"])
        assert projected.schema.names == ["Age"]
        assert len(projected) == 3

    def test_select(self, dataset):
        selected = dataset.select(lambda record: record["Age"] > 25)
        assert len(selected) == 1
        assert selected[0]["Education"] == "Masters"

    def test_subset_preserves_order_and_checks_bounds(self, dataset):
        subset = dataset.subset([2, 0])
        assert subset.column("Age") == [25, 25]
        assert subset[0]["Items"] == frozenset({"a", "c"})
        with pytest.raises(DatasetError):
            dataset.subset([99])

    def test_to_rows_round_trip(self, dataset, schema):
        rebuilt = Dataset.from_rows(schema, dataset.to_rows())
        assert rebuilt == dataset

    def test_with_columns_replaces_one_transaction_attribute(self, dataset):
        column = dataset.columnar("Items").remap([["x", None, "x"]])
        replaced = dataset.with_columns({"Items": column}, name="out")
        assert "_records" not in vars(replaced)
        assert (replaced.name, len(replaced)) == ("out", 3)
        assert replaced.column("Items") == [frozenset({"x"}), frozenset(), frozenset({"x"})]
        assert [record["Age"] for record in replaced] == [25, 30, 25]
        assert dataset[0]["Items"] == frozenset({"a", "b"})
        replaced.set_value(1, "Items", ["y"])
        assert replaced.columnar("Items").vocabulary.items == ("x", "y")

    def test_with_columns_checks_the_attribute_and_the_length(self, dataset):
        column = dataset.columnar("Items")
        with pytest.raises(SchemaError):
            dataset.with_columns({"Age": column})
        with pytest.raises(SchemaError):
            dataset.with_columns({"Items": dataset.columnar("Age")})
        with pytest.raises(SchemaError):
            dataset.with_columns({"Height": dataset.columnar("Age")})
        with pytest.raises(DatasetError):
            dataset.subset([0, 1]).with_columns({"Items": column})


class TestSetColumn:
    def test_normalisation_keeps_types(self, dataset):
        dataset.set_column("Age", [25, 25.0, "25"])
        ages = dataset.column("Age")
        assert ages == [25, 25, 25]
        assert [type(age) for age in ages] == [int, float, int]
        dataset.set_column("Age", ["[20-40]", " [20-40] ", None])
        assert dataset.column("Age") == ["[20-40]", "[20-40]", None]
        dataset.set_column("Education", [1, "1", None])
        assert dataset.column("Education") == ["1", "1", None]

    def test_signed_zero_stays_distinct_on_categorical(self, dataset):
        dataset.set_column("Education", [0.0, -0.0, 0.0])
        assert dataset.column("Education") == ["0.0", "-0.0", "0.0"]

    def test_transaction_iterables_and_none(self, dataset):
        dataset.set_column("Items", [["a", "b"], None, {1, "c"}])
        assert dataset.column("Items") == [
            frozenset({"a", "b"}),
            frozenset(),
            frozenset({"1", "c"}),
        ]
        with pytest.raises(DatasetError):
            dataset.set_column("Items", ["ab", [], []])

    def test_rejected_cell_raises_before_any_write(self, dataset):
        before = dataset.version
        with pytest.raises(DatasetError):
            dataset.set_column("Age", [1, "young", 3])
        assert dataset.column("Age") == [25, 30, 25]
        assert dataset.version == before

    def test_version_goes_up_by_exactly_one(self, dataset):
        before = dataset.version
        dataset.set_column("Age", [1, 2, 3])
        assert dataset.version == before + 1
        dataset.map_column("Age", lambda v: v * 2)
        assert dataset.version == before + 2
        assert dataset.column("Age") == [2, 4, 6]

    def test_drops_only_that_attributes_columnar_view(self, dataset):
        age_view = dataset.columnar("Age")
        education_view = dataset.columnar("Education")
        items_view = dataset.columnar("Items")
        dataset.set_column("Age", [40, 40, 41])
        assert dataset.columnar("Education") is education_view
        assert dataset.columnar("Items") is items_view
        fresh = dataset.columnar("Age")
        assert fresh is not age_view
        assert fresh.values == (40, 41)
        assert dataset.domain("Age") == [40, 41]

    def test_length_mismatch_raises(self, dataset):
        before = dataset.version
        with pytest.raises(DatasetError):
            dataset.set_column("Age", [1, 2])
        assert dataset.version == before
        assert dataset.column("Age") == [25, 30, 25]

    def test_unknown_attribute_raises(self, dataset):
        with pytest.raises(SchemaError):
            dataset.set_column("Salary", [1, 2, 3])

    def test_matches_per_cell_writes(self, dataset):
        values = ["[20-40]", 30, "31"]
        bulk = dataset.copy()
        bulk.set_column("Age", values)
        cells = dataset.copy()
        for index, value in enumerate(values):
            cells.set_value(index, "Age", value)
        assert bulk.fingerprint() == cells.fingerprint()


class TestDomain:
    def test_domain_reads_the_columnar_view(self, dataset):
        dataset.set_column("Age", [30, None, 25])
        assert dataset.domain("Age") == [25, 30]
        assert dataset.domain("Education") == ["Bachelors", "Masters"]
        assert dataset.domain("Items") == ["a", "b", "c"]

    def test_mixed_domain_sorts_by_string(self, dataset):
        dataset.set_column("Age", [30, "[20-40]", 25])
        assert dataset.domain("Age") == [25, 30, "[20-40]"]
