"""Tests for the Method Evaluator (Evaluation mode)."""

import pytest

from oracles.queries import are_without_domains
from repro.engine import evaluator as evaluator_module
from repro.engine import (
    ExperimentResources,
    MethodEvaluator,
    relational_config,
    rt_config,
    transaction_config,
)


@pytest.fixture(scope="module")
def rt(request):
    from repro.datasets import generate_rt_dataset

    return generate_rt_dataset(n_records=100, n_items=18, seed=23)


class TestEvaluationReport:
    def test_relational_only_report(self, rt):
        evaluator = MethodEvaluator(rt)
        report = evaluator.evaluate(relational_config("cluster", k=4))
        assert report.are >= 0
        assert "relational_gcp" in report.utility
        assert "discernibility" in report.utility
        assert report.privacy["k_anonymous"] is True
        assert report.privacy["min_class_size"] >= 4
        assert "transaction_ul" not in report.utility
        assert report.generalized_value_frequencies  # Figure 3(c) series
        assert report.runtime_seconds > 0

    def test_transaction_only_report(self, rt):
        evaluator = MethodEvaluator(rt)
        report = evaluator.evaluate(transaction_config("apriori", k=4, m=2))
        assert "transaction_ul" in report.utility
        assert "item_frequency_error" in report.utility
        assert report.privacy["km_anonymous"] is True
        assert report.item_frequency_errors  # Figure 3(d) series
        assert not report.generalized_value_frequencies

    def test_rt_report_checks_k_km(self, rt):
        evaluator = MethodEvaluator(rt)
        report = evaluator.evaluate(
            rt_config("cluster", "apriori", bounding="tmerger", k=4, m=2, delta=0.8)
        )
        assert report.privacy["k_km_anonymous"] is True
        assert "relational_gcp" in report.utility
        assert "transaction_ul" in report.utility

    def test_privacy_verification_can_be_skipped(self, rt):
        evaluator = MethodEvaluator(rt, verify_privacy=False)
        report = evaluator.evaluate(transaction_config("apriori", k=4, m=1))
        assert report.privacy["km_anonymous"] is None

    def test_km_check_skipped_for_large_universes(self, rt, monkeypatch):
        monkeypatch.setattr(evaluator_module, "KM_CHECK_LIMIT", 1)
        evaluator = MethodEvaluator(rt)
        report = evaluator.evaluate(transaction_config("apriori", k=4, m=1))
        assert report.privacy["km_anonymous"] is None

    def test_summary_row_is_flat(self, rt):
        evaluator = MethodEvaluator(rt)
        report = evaluator.evaluate(relational_config("cluster", k=4, label="CL"))
        summary = report.summary()
        assert summary["configuration"] == "CL"
        assert "utility_relational_gcp" in summary
        assert "privacy_k_anonymous" in summary

    def test_resources_are_reused_across_evaluations(self, rt):
        resources = ExperimentResources.prepare(rt, transaction_config("apriori", k=4))
        evaluator = MethodEvaluator(rt, resources)
        first = evaluator.evaluate(transaction_config("apriori", k=4, m=1))
        second = evaluator.evaluate(transaction_config("apriori", k=6, m=1))
        assert resources.workload is not None
        assert first.are <= second.are + 1e9  # both computed with the same workload


class TestUniverseAwareness:
    def test_prepare_captures_domain_snapshot(self, rt):
        resources = ExperimentResources.prepare(rt, transaction_config("apriori", k=4))
        assert resources.domains is not None
        assert resources.domains.universe_for("Items") == frozenset(
            rt.item_universe("Items")
        )
        assert "domains" in resources.summary()

    def test_evaluator_are_with_domains_against_without(self, rt):
        resources = ExperimentResources.prepare(rt, transaction_config("coat", k=4))
        report = MethodEvaluator(rt, resources).evaluate(
            transaction_config("coat", k=20)
        )
        without = are_without_domains(
            resources.workload,
            rt,
            report.result.dataset,
            resources.hierarchies_with_items("Items"),
        )
        assert report.are is not None
        # Same workload, same output; only the label resolution differs.
        assert report.are <= without.are + 1e-9

    def test_unqueryable_dataset_reports_are_none(self):
        from repro.datasets import Attribute, Dataset, Schema
        from repro.engine import relational_config

        schema = Schema([Attribute.categorical("A", quasi_identifier=False)])
        dataset = Dataset(schema, [{"A": value} for value in "xyxyxy"])
        evaluator = MethodEvaluator(dataset, ExperimentResources())
        report = evaluator.evaluate(
            relational_config("cluster", k=2, relational_attributes=["A"])
        )
        assert report.are is None
        assert evaluator.resources.workload is None
        assert report.summary()["are"] is None
