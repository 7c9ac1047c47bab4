"""Tests for transaction information-loss metrics."""

import pytest

from repro.algorithms import AprioriAnonymizer
from repro.datasets import Attribute, Dataset, Schema, generate_market_basket
from repro.exceptions import DatasetError
from repro.hierarchy import build_item_hierarchy
from repro.metrics import (
    average_item_frequency_error,
    estimated_item_frequencies,
    item_frequency_error,
    item_generalization_cost,
    itemset_utility_loss,
    suppression_ratio,
    utility_loss,
)
from repro.metrics import transaction as transaction_metrics


@pytest.fixture
def original(simple_transactions):
    return simple_transactions


def rewrite_items(dataset, mapping):
    """Apply an item -> label (or None for suppression) mapping to every record."""
    anonymized = dataset.copy()
    for index, record in enumerate(dataset):
        new_items = []
        for item in record["Items"]:
            label = mapping.get(item, item)
            if label is not None:
                new_items.append(label)
        anonymized.set_value(index, "Items", new_items)
    return anonymized


class TestItemGeneralizationCost:
    def test_original_item_costs_nothing(self):
        assert item_generalization_cost("a", universe_size=5) == 0.0

    def test_group_cost_scales_with_size(self):
        assert item_generalization_cost("(a,b)", universe_size=5) == pytest.approx(0.25)
        assert item_generalization_cost("(a,b,c,d,e)", universe_size=5) == pytest.approx(1.0)

    def test_degenerate_universe(self):
        assert item_generalization_cost("(a,b)", universe_size=1) == 0.0

    def test_root_label_costs_one_without_hierarchy(self):
        # Regression: on the hierarchy-free COAT/PCTA path the root label "*"
        # used to resolve to an empty set and be charged 0 instead of 1.
        assert item_generalization_cost(
            "*", universe_size=5, universe={"a", "b", "c", "d", "e"}
        ) == pytest.approx(1.0)


class TestUtilityLoss:
    def test_identity_has_zero_loss(self, original):
        assert utility_loss(original, original) == pytest.approx(0.0)

    def test_full_suppression_has_full_loss(self, original):
        empty = rewrite_items(original, {item: None for item in original.item_universe()})
        assert utility_loss(original, empty) == pytest.approx(1.0)

    def test_generalization_loss_between_zero_and_one(self, original):
        generalized = rewrite_items(original, {"a": "(a,b)", "b": "(a,b)"})
        loss = utility_loss(original, generalized)
        assert 0.0 < loss < 1.0

    def test_generalization_cheaper_than_suppression(self, original):
        generalized = rewrite_items(original, {"a": "(a,b)", "b": "(a,b)"})
        suppressed = rewrite_items(original, {"a": None, "b": None})
        assert utility_loss(original, generalized) < utility_loss(original, suppressed)

    def test_misaligned_datasets_rejected(self, original):
        shorter = original.subset(range(len(original) - 1))
        with pytest.raises(DatasetError):
            utility_loss(original, shorter)

    def test_root_generalization_has_full_loss_without_hierarchy(self, original):
        # Regression: generalizing every item to the root "*" destroys all
        # utility, so UL must be 1.0 even when no hierarchy is supplied (the
        # COAT/PCTA path).  The root label used to be charged 0.
        rooted = rewrite_items(
            original, {item: "*" for item in original.item_universe()}
        )
        assert utility_loss(original, rooted) == pytest.approx(1.0)

    def test_universe_less_interpreter_rejected(self, original):
        from repro.index import interpreter_for

        with pytest.raises(DatasetError):
            utility_loss(original, original, interpreter=interpreter_for(None))

    def test_root_generalization_not_counted_as_suppression(self, original):
        rooted = rewrite_items(
            original, {item: "*" for item in original.item_universe()}
        )
        assert suppression_ratio(original, rooted) == 0.0


class TestUtilityLossFallback:
    @pytest.mark.parametrize("seed", range(12))
    def test_size_guard_fallback_matches_vectorized_value(self, seed, monkeypatch):
        original = generate_market_basket(300, 30, seed=seed)
        hierarchy = build_item_hierarchy(original.item_universe("Items"))
        anonymized = AprioriAnonymizer(5, 2, hierarchy=hierarchy).anonymize(original).dataset
        vectorized = utility_loss(original, anonymized, hierarchy=hierarchy)
        monkeypatch.setattr(transaction_metrics, "_MAX_CHARGE_MATRIX_CELLS", 0)
        assert utility_loss(original, anonymized, hierarchy=hierarchy) == vectorized

    def test_itemset_utility_loss_rejects_misaligned_itemsets(self):
        with pytest.raises(DatasetError):
            itemset_utility_loss([frozenset({"a"})], [])


class TestSuppressionRatio:
    def test_zero_when_everything_is_kept(self, original):
        assert suppression_ratio(original, original) == 0.0

    def test_counts_missing_occurrences(self, original):
        anonymized = rewrite_items(original, {"a": None})
        total = sum(len(record["Items"]) for record in original)
        a_occurrences = sum(1 for record in original if "a" in record["Items"])
        assert suppression_ratio(original, anonymized) == pytest.approx(
            a_occurrences / total
        )

    def test_generalization_is_not_suppression(self, original):
        anonymized = rewrite_items(original, {"a": "(a,b)"})
        assert suppression_ratio(original, anonymized) == 0.0


class TestItemFrequencyError:
    def test_zero_error_for_identity(self, original):
        errors = item_frequency_error(original, original)
        assert all(error == pytest.approx(0.0) for error in errors.values())
        assert average_item_frequency_error(original, original) == pytest.approx(0.0)

    def test_estimated_frequencies_split_generalized_support(self):
        schema = Schema([Attribute.transaction("Items")])
        original = Dataset(schema, [{"Items": ["a"]}, {"Items": ["b"]}])
        anonymized = Dataset(schema, [{"Items": ["(a,b)"]}, {"Items": ["(a,b)"]}])
        estimates = estimated_item_frequencies(anonymized, {"a", "b"})
        assert estimates["a"] == pytest.approx(1.0)
        assert estimates["b"] == pytest.approx(1.0)
        errors = item_frequency_error(original, anonymized)
        assert all(error == pytest.approx(0.0) for error in errors.values())

    def test_error_grows_with_suppression(self, original):
        suppressed = rewrite_items(original, {"a": None})
        errors = item_frequency_error(original, suppressed)
        assert errors["a"] == pytest.approx(1.0)
        assert average_item_frequency_error(original, suppressed) > 0.0
