"""Tests for the shared algorithm infrastructure."""

import time

import pytest

from repro.algorithms.base import (
    AnonymizationResult,
    PhaseTimer,
    publish_items,
    relational_quasi_identifiers,
    require_hierarchies,
    validate_k,
)
from repro.exceptions import ConfigurationError
from repro.hierarchy import build_categorical_hierarchy


class TestPhaseTimer:
    def test_phases_accumulate(self):
        timer = PhaseTimer()
        with timer.phase("a"):
            time.sleep(0.01)
        with timer.phase("a"):
            pass
        with timer.phase("b"):
            pass
        assert set(timer.phases) == {"a", "b"}
        assert timer.phases["a"] >= 0.01
        assert timer.total >= timer.phases["a"]


class TestResultSummary:
    def test_summary_flattens_parameters_and_statistics(self, toy_dataset):
        result = AnonymizationResult(
            dataset=toy_dataset,
            algorithm="demo",
            parameters={"k": 3},
            runtime_seconds=0.5,
            statistics={"gcp": 0.1},
        )
        summary = result.summary()
        assert summary["algorithm"] == "demo"
        assert summary["param_k"] == 3
        assert summary["gcp"] == 0.1
        assert summary["records"] == len(toy_dataset)


class TestHelpers:
    def test_relational_quasi_identifiers_excludes_sensitive(self, simple_relational):
        assert relational_quasi_identifiers(simple_relational) == ["Age", "Zip"]

    def test_require_hierarchies(self):
        hierarchy = build_categorical_hierarchy(["a", "b"], fanout=2)
        require_hierarchies(["X"], {"X": hierarchy}, "algo")
        with pytest.raises(ConfigurationError):
            require_hierarchies(["X", "Y"], {"X": hierarchy}, "algo")

    def test_validate_k(self):
        validate_k(2, 10, "algo")
        with pytest.raises(ConfigurationError):
            validate_k(1, 10, "algo")
        with pytest.raises(ConfigurationError):
            validate_k(11, 10, "algo")

    def test_publish_items_suppresses_and_deduplicates(self, simple_transactions):
        published = publish_items(
            simple_transactions,
            "Items",
            "demo",
            [{"a": "(a,b)", "b": "(a,b)", "e": None}],
        )
        assert "_records" not in vars(published)
        assert published.name == "simple-transactions[demo]"
        assert published[0]["Items"] == frozenset({"(a,b)"})
        assert published[5]["Items"] == frozenset({"d"})
        assert simple_transactions[0]["Items"] == frozenset({"a", "b"})
