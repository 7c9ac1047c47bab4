"""FIG1 — Architecture smoke-run (Figure 1).

Figure 1 shows the component wiring: the frontend editors feed the Policy
Specification Module and the Method Evaluator/Comparator, which spawn
Anonymization Module instances and forward results to the Experimentation,
Plotting and Data Export modules.  This benchmark drives that entire pipeline
once (two configurations, sequential and process mode) and times it end to
end; the process-mode run fans the cells out to worker processes, the
dataset travelling through shared memory.
"""

from __future__ import annotations

from repro.engine import (
    Execution,
    MethodComparator,
    ParameterSweep,
    rt_config,
    transaction_config,
)
from repro.frontend.export import DataExportModule
from repro.frontend.plotting import comparison_figure

CONFIGURATIONS = [
    rt_config("cluster", "apriori", bounding="rtmerger", m=2, delta=0.6, label="cluster+apriori"),
    transaction_config("lra", m=2, label="lra-only"),
]


def _run_pipeline(session, mode: str):
    comparator = MethodComparator(
        session.dataset,
        session.resources(),
        verify_privacy=False,
        execution=Execution(mode=mode),
    )
    return comparator.compare(CONFIGURATIONS, ParameterSweep("k", (5,)))


def test_end_to_end_pipeline_sequential(benchmark, session, record, tmp_path_factory):
    """Editors -> resources -> anonymization modules -> evaluation -> export."""
    report = benchmark.pedantic(_run_pipeline, args=(session, "sequential"), rounds=1, iterations=1)
    directory = tmp_path_factory.mktemp("fig1")
    exporter = DataExportModule(directory)
    written = exporter.export_comparison(report, stem="architecture")
    figure = comparison_figure(report, "are")
    record(
        "fig1_architecture",
        {
            "configurations": [sweep.configuration["label"] for sweep in report.sweeps],
            "are": {s.configuration["label"]: s.series["are"].y for s in report.sweeps},
            "exported_files": sorted(str(path.name) for path in written.values()),
            "figure_rows": figure.to_rows(),
        },
    )
    assert len(report.sweeps) == 2


def test_end_to_end_pipeline_parallel(benchmark, session):
    """The same pipeline with N parallel Anonymization Module instances."""
    report = benchmark.pedantic(_run_pipeline, args=(session, "process"), rounds=1, iterations=1)
    assert len(report.sweeps) == 2
