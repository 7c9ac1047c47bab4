"""Tests for relational information-loss metrics."""

import pytest

from repro.datasets import Attribute, Dataset, Schema
from repro.exceptions import DatasetError
from repro.hierarchy.hierarchy import HierarchyBuilder
from repro.metrics import (
    average_class_size,
    categorical_value_ncp,
    discernibility_metric,
    global_certainty_penalty,
    ncp_per_attribute,
    numeric_value_ncp,
)
from repro.metrics.relational import RelationalLossContext


@pytest.fixture
def original(simple_relational):
    return simple_relational


def anonymize_to_labels(dataset, age_label, zip_label):
    """Replace every Age/Zip value by fixed generalized labels."""
    anonymized = dataset.copy()
    for index in range(len(anonymized)):
        anonymized.set_value(index, "Age", age_label)
        anonymized.set_value(index, "Zip", zip_label)
    return anonymized


class TestValueNcp:
    def test_categorical_leaf_has_zero_ncp(self):
        assert categorical_value_ncp("a", None, domain_size=5) == 0.0

    def test_categorical_group_ncp(self):
        assert categorical_value_ncp("(a,b,c)", None, domain_size=5) == pytest.approx(0.5)

    def test_categorical_degenerate_domain(self):
        assert categorical_value_ncp("(a,b)", None, domain_size=1) == 0.0

    def test_categorical_root_label_is_fully_generalized(self):
        # Regression: without a hierarchy the root "*" resolved to an empty
        # leaf set and scored NCP 0 instead of 1 (the relational analogue of
        # the transaction-side root-label utility bug).
        assert categorical_value_ncp("*", None, domain_size=5) == 1.0

    def test_numeric_exact_value_has_zero_ncp(self):
        assert numeric_value_ncp(25, None, 0, 100) == 0.0
        assert numeric_value_ncp("25", None, 0, 100) == 0.0

    def test_numeric_interval_ncp(self):
        assert numeric_value_ncp("[0-50]", None, 0, 100) == pytest.approx(0.5)
        assert numeric_value_ncp("[0-100]", None, 0, 100) == pytest.approx(1.0)

    def test_numeric_uninterpretable_label_is_full_loss(self):
        assert numeric_value_ncp("whatever", None, 0, 100) == 1.0


class TestDatasetMetrics:
    def test_gcp_zero_for_unmodified_data(self, original):
        # The Age column is numeric; identical data means every cell is exact.
        assert global_certainty_penalty(original, original) == pytest.approx(0.0)

    def test_gcp_one_for_fully_generalized_data(self, original):
        domain = original.domain("Age")
        full_age = f"[{min(domain)}-{max(domain)}]"
        anonymized = anonymize_to_labels(original, full_age, "(4370,4371,5500,5501)")
        assert global_certainty_penalty(original, anonymized) == pytest.approx(1.0)

    def test_gcp_monotone_in_generalization(self, original):
        mild = anonymize_to_labels(original, "[21-24]", "4370")
        severe = anonymize_to_labels(original, "[21-54]", "(4370,4371,5500,5501)")
        assert global_certainty_penalty(original, mild) < global_certainty_penalty(
            original, severe
        )

    def test_ncp_per_attribute_keys(self, original):
        anonymized = anonymize_to_labels(original, "[21-54]", "4370")
        per_attribute = ncp_per_attribute(original, anonymized)
        assert set(per_attribute) == {"Age", "Zip"}
        assert per_attribute["Age"] > 0
        assert per_attribute["Zip"] == 0.0

    def test_non_quasi_identifiers_are_ignored(self, original):
        anonymized = original.copy()
        for index in range(len(anonymized)):
            anonymized.set_value(index, "Disease", "(Flu,Cold)")
        assert global_certainty_penalty(original, anonymized) == pytest.approx(0.0)


class TestHierarchyLeavesAbsentFromTheData:
    """Regression: a label's NCP counts only the leaves the data holds.

    The hierarchy has four leaves and the data uses two of them.  Counting
    every hierarchy leaf over the two-value domain scored the root NCP 3 and
    GCP 1.5; restricted to the original domain (the rule UL and the
    ``"original"`` ARE mode use) the root scores 1 and no cell exceeds 1.
    """

    @pytest.fixture
    def setup(self):
        builder = HierarchyBuilder("ANY", "City")
        builder.add_path(["North", "a"]).add_path(["North", "b"])
        builder.add_path(["South", "c"]).add_path(["South", "d"])
        hierarchy = builder.build()
        schema = Schema(
            [Attribute.categorical("City"), Attribute.categorical("Job")]
        )
        rows = [{"City": city, "Job": "x"} for city in ("a", "c", "a", "c")]
        return Dataset(schema, rows), {"City": hierarchy}

    def test_root_scores_one_and_gcp_stays_within_one(self, setup):
        original, hierarchies = setup
        rooted = original.copy()
        rooted.map_column("City", lambda _: "ANY")
        attributes = ["City", "Job"]
        assert ncp_per_attribute(original, rooted, attributes, hierarchies) == {
            "City": 1.0,
            "Job": 0.0,
        }
        assert global_certainty_penalty(
            original, rooted, attributes, hierarchies
        ) == pytest.approx(0.5)

    def test_every_label_scores_at_most_one(self, setup):
        original, hierarchies = setup
        context = RelationalLossContext(original, ["City"], hierarchies)
        scores = {
            label: context.cell_ncp("City", label)
            for label in hierarchies["City"].labels
        }
        assert scores["ANY"] == 1.0
        assert scores["North"] == 0.0  # stands for "a" only, as far as the data goes
        assert scores["a"] == 0.0
        assert all(0.0 <= score <= 1.0 for score in scores.values())


class TestClassStructureMetrics:
    def test_discernibility_identity(self, original):
        # Every record is unique on (Age, Zip): 8 classes of size 1.
        assert discernibility_metric(original) == 8

    def test_discernibility_grouped(self, original):
        anonymized = anonymize_to_labels(original, "[21-54]", "*")
        assert discernibility_metric(anonymized) == 64

    def test_average_class_size(self, original):
        anonymized = anonymize_to_labels(original, "[21-54]", "*")
        assert average_class_size(anonymized, k=4) == pytest.approx(2.0)
        assert average_class_size(original, k=1) == pytest.approx(1.0)

    def test_average_class_size_requires_positive_k(self, original):
        with pytest.raises(DatasetError):
            average_class_size(original, k=0)
