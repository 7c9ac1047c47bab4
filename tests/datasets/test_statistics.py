"""Tests for attribute statistics."""

import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from oracles.statistics import item_frequencies_by_records, value_frequencies_by_records
from repro.datasets import (
    Attribute,
    Dataset,
    Schema,
    attribute_histogram,
    dataset_summary,
    frequency_relative_error,
    numeric_histogram,
    toy_rt_dataset,
    value_frequencies,
)
from repro.exceptions import DatasetError


@pytest.fixture
def dataset():
    return toy_rt_dataset()


class TestValueFrequencies:
    def test_categorical_counts(self, dataset):
        frequencies = value_frequencies(dataset, "Education")
        assert frequencies["Bachelors"] == 2
        assert frequencies["Masters"] == 2
        assert sum(frequencies.values()) == len(dataset)

    def test_transaction_counts_are_item_supports(self, dataset):
        frequencies = value_frequencies(dataset, "Items")
        assert frequencies["bread"] == 4
        assert frequencies["wine"] == 4
        assert frequencies["milk"] == 4
        assert frequencies["beer"] == 3

    def test_numeric_counts(self, dataset):
        frequencies = value_frequencies(dataset, "Age")
        assert frequencies[25] == 1
        assert len(frequencies) == len(dataset)

    def test_equal_keys_share_the_first_one_seen(self):
        schema = Schema([Attribute.numeric("N")])
        cells = [None, 25.0, 25, "[20-30]", 25, None]
        dataset = Dataset(schema, [{"N": cell} for cell in cells])
        frequencies = value_frequencies(dataset, "N")
        assert list(frequencies.items()) == [(25.0, 3), ("[20-30]", 1)]
        assert type(next(iter(frequencies))) is float

    @given(
        cells=st.lists(
            st.one_of(
                st.none(),
                st.integers(0, 3),
                st.sampled_from([0.0, 1.0, 2.5, -0.0, "[0-3]", "*"]),
            ),
            max_size=30,
        )
    )
    @settings(max_examples=60, deadline=None)
    def test_relational_counts_match_the_record_walk(self, cells):
        schema = Schema([Attribute.numeric("N"), Attribute.categorical("C")])
        dataset = Dataset(schema, [{"N": cell, "C": cell} for cell in cells])
        for attribute in ("N", "C"):
            expected = value_frequencies_by_records(dataset, attribute)
            actual = value_frequencies(dataset, attribute)
            # Same keys of the same types, in the same order, with equal counts.
            assert [(type(key), repr(key), count) for key, count in actual.items()] == [
                (type(key), repr(key), count) for key, count in expected.items()
            ]


    @given(
        baskets=st.lists(
            st.sets(st.sampled_from(["a", "b", "c10", "c2", "é", ""]), max_size=4),
            max_size=30,
        )
    )
    @settings(max_examples=60, deadline=None)
    def test_item_supports_match_the_record_walk(self, baskets):
        schema = Schema([Attribute.transaction("Items")])
        dataset = Dataset(schema, [{"Items": basket} for basket in baskets])
        expected = item_frequencies_by_records(dataset, "Items")
        actual = value_frequencies(dataset, "Items")
        # The same items with the same supports; callers ignore key order.
        assert actual == expected
        assert all(type(count) is int for count in actual.values())
        assert list(actual) == sorted(expected)


class TestHistograms:
    def test_numeric_histogram_covers_all_values(self, dataset):
        histogram = numeric_histogram(dataset, "Age", bins=4)
        assert len(histogram["counts"]) == 4
        assert len(histogram["edges"]) == 5
        assert sum(histogram["counts"]) == len(dataset)

    def test_numeric_histogram_requires_numeric(self, dataset):
        with pytest.raises(DatasetError):
            numeric_histogram(dataset, "Education")

    def test_attribute_histogram_dispatches_by_kind(self, dataset):
        numeric = attribute_histogram(dataset, "Age", bins=3)
        categorical = attribute_histogram(dataset, "Education")
        transaction = attribute_histogram(dataset, "Items")
        assert numeric["kind"] == "numeric"
        assert categorical["kind"] == "categorical"
        assert transaction["kind"] == "transaction"
        assert categorical["labels"][0] in {"Bachelors", "Masters", "HS-grad", "Doctorate"}

    def test_categorical_histogram_sorted_by_count(self, dataset):
        histogram = attribute_histogram(dataset, "Items")
        assert histogram["counts"] == sorted(histogram["counts"], reverse=True)


class TestSummary:
    def test_summary_structure(self, dataset):
        summary = dataset_summary(dataset)
        assert summary["records"] == len(dataset)
        assert summary["attributes"]["Age"]["kind"] == "numeric"
        assert summary["attributes"]["Age"]["min"] == 25
        assert summary["attributes"]["Education"]["distinct"] == 4
        assert summary["attributes"]["Items"]["universe"] == 4
        assert summary["attributes"]["Items"]["avg_items"] > 0


class TestFrequencyRelativeError:
    def test_identical_distributions_have_zero_error(self):
        original = {"a": 10, "b": 5}
        assert frequency_relative_error(original, dict(original)) == {"a": 0.0, "b": 0.0}

    def test_relative_error_values(self):
        errors = frequency_relative_error({"a": 10}, {"a": 5})
        assert errors["a"] == pytest.approx(0.5)

    def test_value_missing_from_original_is_infinite(self):
        errors = frequency_relative_error({"a": 1}, {"a": 1, "b": 3})
        assert math.isinf(errors["b"])

    def test_value_missing_from_both_sides(self):
        errors = frequency_relative_error({"a": 4}, {})
        assert errors["a"] == 1.0
