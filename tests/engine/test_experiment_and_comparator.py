"""Tests for varying-parameter execution and the Comparison mode."""

import pytest

from repro.datasets import generate_rt_dataset
from repro.engine import (
    Execution,
    MethodComparator,
    ParameterSweep,
    VaryingParameterExperiment,
    run_many,
    rt_config,
    transaction_config,
)
from repro.exceptions import ConfigurationError


def _add_one(value):
    """Module-level worker: process mode must be able to pickle it."""
    return value + 1


@pytest.fixture(scope="module")
def rt():
    return generate_rt_dataset(n_records=90, n_items=15, seed=29)


class TestParameterSweep:
    def test_from_range_inclusive(self):
        sweep = ParameterSweep.from_range("k", 2, 10, 2)
        assert sweep.values == (2, 4, 6, 8, 10)
        assert len(sweep) == 5

    def test_from_range_float_parameter(self):
        sweep = ParameterSweep.from_range("delta", 0.0, 1.0, 0.25)
        assert sweep.values == (0.0, 0.25, 0.5, 0.75, 1.0)

    def test_k_values_are_integers(self):
        sweep = ParameterSweep.from_range("k", 2, 4, 1)
        assert all(isinstance(value, int) for value in sweep.values)

    def test_invalid_ranges(self):
        with pytest.raises(ConfigurationError):
            ParameterSweep.from_range("k", 5, 2, 1)
        with pytest.raises(ConfigurationError):
            ParameterSweep.from_range("k", 2, 5, 0)
        with pytest.raises(ConfigurationError):
            ParameterSweep("fanout", (1, 2))
        with pytest.raises(ConfigurationError):
            ParameterSweep("k", ())


class TestVaryingParameterExperiment:
    def test_sweep_produces_series_per_indicator(self, rt):
        experiment = VaryingParameterExperiment(rt)
        sweep = experiment.run(
            transaction_config("apriori", m=1), ParameterSweep("k", (2, 5, 10))
        )
        assert sweep.values == [2, 5, 10]
        assert set(sweep.series) >= {"are", "runtime_seconds", "transaction_ul"}
        assert len(sweep.series["are"]) == 3
        assert len(sweep.reports) == 3

    def test_utility_loss_grows_with_k(self, rt):
        experiment = VaryingParameterExperiment(rt)
        sweep = experiment.run(
            transaction_config("apriori", m=2), ParameterSweep("k", (2, 25))
        )
        ul = sweep.series["transaction_ul"].y
        assert ul[1] >= ul[0] - 1e-9

    def test_rt_delta_sweep(self, rt):
        experiment = VaryingParameterExperiment(rt)
        sweep = experiment.run(
            rt_config("cluster", "apriori", k=3, m=1),
            ParameterSweep("delta", (0.2, 1.0)),
        )
        assert "relational_gcp" in sweep.series
        assert len(sweep.series["relational_gcp"]) == 2


class TestComparator:
    def test_comparison_report_structure(self, rt):
        comparator = MethodComparator(rt)
        configurations = [
            transaction_config("apriori", m=1, label="AA"),
            transaction_config("lra", m=1, label="LRA"),
        ]
        report = comparator.compare(configurations, ParameterSweep("k", (2, 6)))
        assert report.parameter == "k"
        assert len(report.sweeps) == 2
        assert {s.configuration["label"] for s in report.sweeps} == {"AA", "LRA"}
        are_series = report.series_for("are")
        assert len(are_series) == 2
        table = report.table("are")
        assert len(table) == 2
        assert set(table[0]) == {"k", "AA", "LRA"}

    def test_empty_configuration_list_rejected(self, rt):
        with pytest.raises(ConfigurationError):
            MethodComparator(rt).compare([], ParameterSweep("k", (2,)))

    def test_fixed_value_comparison(self, rt):
        comparator = MethodComparator(rt)
        report = comparator.compare_fixed(
            [transaction_config("apriori", m=1, label="AA")], "k", 4
        )
        assert report.values == [4]

    def test_parallel_execution_matches_sequential(self, rt):
        configurations = [
            transaction_config("apriori", m=1, label="AA"),
            transaction_config("vpa", m=1, label="VPA"),
        ]
        sweep = ParameterSweep("k", (3,))
        sequential = MethodComparator(rt).compare(configurations, sweep)
        parallel = MethodComparator(
            rt, execution=Execution(mode="process", max_workers=2)
        ).compare(configurations, sweep)
        assert [s.configuration["label"] for s in sequential.sweeps] == [
            s.configuration["label"] for s in parallel.sweeps
        ]
        for left, right in zip(sequential.sweeps, parallel.sweeps):
            assert left.series["transaction_ul"].y == pytest.approx(
                right.series["transaction_ul"].y
            )


class TestRunner:
    def test_run_many_preserves_order(self):
        results = run_many([3, 1, 2], lambda value: value * 10)
        assert results == [30, 10, 20]

    def test_run_many_parallel(self):
        results = run_many(list(range(20)), _add_one, Execution(mode="process", max_workers=2))
        assert results == list(range(1, 21))

    def test_run_many_empty(self):
        assert run_many([], lambda value: value) == []

    def test_run_many_process_mode(self):
        results = run_many(list(range(8)), _add_one, Execution(mode="process", max_workers=2))
        assert results == list(range(1, 9))

    def test_run_many_rejects_unknown_mode(self):
        with pytest.raises(ConfigurationError):
            Execution(mode="gpu")


class TestProcessExecution:
    def test_process_sweep_matches_sequential(self, rt):
        config = transaction_config("apriori", m=1)
        sweep = ParameterSweep("k", (2, 5))
        sequential = VaryingParameterExperiment(rt).run(config, sweep)
        processed = VaryingParameterExperiment(
            rt, execution=Execution(mode="process", max_workers=2)
        ).run(
            config, sweep
        )
        assert processed.values == sequential.values
        assert processed.series["transaction_ul"].y == pytest.approx(
            sequential.series["transaction_ul"].y
        )
        assert processed.series["are"].y == pytest.approx(sequential.series["are"].y)

    def test_process_comparison_matches_sequential(self, rt):
        configurations = [
            transaction_config("apriori", m=1, label="AA"),
            transaction_config("vpa", m=1, label="VPA"),
        ]
        sweep = ParameterSweep("k", (3,))
        sequential = MethodComparator(rt).compare(configurations, sweep)
        processed = MethodComparator(
            rt, execution=Execution(mode="process", max_workers=2)
        ).compare(
            configurations, sweep
        )
        assert [s.configuration["label"] for s in processed.sweeps] == [
            s.configuration["label"] for s in sequential.sweeps
        ]
        for left, right in zip(sequential.sweeps, processed.sweeps):
            assert left.series["transaction_ul"].y == pytest.approx(
                right.series["transaction_ul"].y
            )
