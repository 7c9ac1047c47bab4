"""Tests for the Session facade (the headless GUI workflow)."""

import pytest

from repro import Session, relational_config, rt_config, transaction_config
from repro.engine import CheckpointStore, ExecutionPolicy, RunReport
from repro.exceptions import ConfigurationError


@pytest.fixture(scope="module")
def session():
    return Session.generate_rt(n_records=90, n_items=15, seed=37)


class TestConstruction:
    def test_generators(self):
        assert Session.generate_relational(n_records=20, seed=1).dataset.schema.relational
        assert Session.generate_transactions(n_records=20, seed=1).dataset.schema.transaction
        rt = Session.generate_rt(n_records=20, seed=1)
        assert rt.dataset.is_rt_dataset

    def test_from_csv(self, tmp_path):
        source = Session.generate_rt(n_records=15, seed=3)
        path = source.dataset_editor.save(tmp_path / "data.csv")
        loaded = Session.from_csv(path, transaction_columns=["Items"])
        assert len(loaded.dataset) == 15


class TestAnalysis:
    def test_summary_and_histogram(self, session):
        summary = session.summary()
        assert summary["records"] == len(session.dataset)
        histogram_text = session.histogram_text("Education")
        assert "Histogram of Education" in histogram_text


class TestEvaluationWorkflow:
    def test_evaluate_uses_editor_resources(self, session):
        session.configuration_editor.generate_hierarchies(fanout=3)
        session.queries_editor.generate(n_queries=10, seed=4)
        report = session.evaluate(rt_config("cluster", "apriori", k=3, m=1, delta=0.8))
        assert report.are >= 0
        assert report.privacy["k_anonymous"]

    def test_sweep_series(self, session):
        sweep = session.sweep(transaction_config("apriori", m=1), "k", 2, 6, 2)
        assert sweep.values == [2, 4, 6]
        assert len(sweep.series["are"]) == 3

    def test_compare_requires_configurations(self, session):
        with pytest.raises(ConfigurationError):
            session.compare([], "k", 2, 4, 2)

    def test_compare_two_methods(self, session):
        report = session.compare(
            [
                transaction_config("apriori", m=1, label="AA"),
                transaction_config("vpa", m=1, label="VPA"),
            ],
            "k",
            2,
            4,
            2,
        )
        assert len(report.sweeps) == 2
        assert report.values == [2, 4]

    @pytest.mark.parametrize("call", ["sweep", "compare"])
    @pytest.mark.parametrize(
        "settings",
        [
            {},
            {"mode": "process", "max_workers": 2},
            {"policy": ExecutionPolicy()},
            {"checkpoint": "store"},
        ],
        ids=["sequential", "process", "policy", "checkpoint"],
    )
    def test_run_report_rule(self, session, tmp_path, call, settings):
        """Every run keeps a RunReport, one task per cell, whatever its
        settings — the same rule for sweep and compare."""
        if "checkpoint" in settings:
            settings = {"checkpoint": CheckpointStore(tmp_path / "ckpt")}
        config = transaction_config("apriori", m=1, label="AA")
        if call == "sweep":
            result = session.sweep(config, "k", 2, 4, 2, **settings)
        else:
            other = transaction_config("vpa", m=1, label="VPA")
            result = session.compare([config, other], "k", 2, 2, 1, **settings)
        assert isinstance(result.run_report, RunReport)
        assert len(result.run_report.tasks) == 2

    def test_checkpoints_are_set_only_through_with_checkpoints(self, session, tmp_path):
        with pytest.raises(TypeError, match="checkpoint_dir"):
            Session(session.dataset, checkpoint_dir=tmp_path)
        assert session.checkpoint is None
        assert session.with_checkpoints(tmp_path).checkpoint is not None

    def test_worker_pool_takes_no_policy(self, session):
        # A policy is given per sweep/compare call, never to the pool.
        with pytest.raises(TypeError, match="policy"):
            session.worker_pool(max_workers=1, policy=ExecutionPolicy())

    def test_verify_privacy_toggle(self, session):
        session.verify_privacy = False
        report = session.evaluate(transaction_config("apriori", k=3, m=1))
        assert report.privacy["km_anonymous"] is None
        session.verify_privacy = True


class TestExport:
    def test_export_all_inputs(self, tmp_path):
        session = Session.generate_rt(n_records=25, n_items=10, seed=5)
        session.configuration_editor.generate_hierarchies(fanout=3)
        session.configuration_editor.generate_policies(k=3)
        session.queries_editor.generate(n_queries=5, seed=1)
        written = session.export_all_inputs(tmp_path)
        assert written["dataset"].exists()
        assert written["workload"].exists()
        assert written["privacy"].exists()

    def test_exporter_round_trip_evaluation(self, tmp_path):
        session = Session.generate_rt(n_records=30, n_items=10, seed=6)
        report = session.evaluate(transaction_config("apriori", k=3, m=1))
        written = session.exporter(tmp_path).export_evaluation(report)
        assert written["anonymized"].exists()
