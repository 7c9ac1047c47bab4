"""The Session facade: a headless walk through the SECRETA workflow.

A :class:`Session` mirrors how a data publisher uses the GUI (Section 3 of the
paper): load a dataset, optionally edit it and inspect attribute histograms,
load or generate hierarchies / policies / query workloads, then switch to the
Evaluation or Comparison interface, run the experiment and export results.

Example
-------
>>> from repro import Session, rt_config
>>> session = Session.generate_rt(n_records=200, seed=1)
>>> report = session.evaluate(rt_config("cluster", "apriori", k=5, m=2))
>>> report.are  # doctest: +SKIP
0.18
"""

from __future__ import annotations

from pathlib import Path
from typing import Any, Sequence

from repro.datasets.csv_io import load_csv
from repro.datasets.dataset import Dataset
from repro.datasets.editor import DatasetEditor
from repro.datasets.generators import generate_adult_like, generate_market_basket, generate_rt_dataset
from repro.datasets.statistics import attribute_histogram, dataset_summary
from repro.engine.checkpoint import CheckpointStore
from repro.engine.comparator import MethodComparator, VaryingParameterExperiment
from repro.engine.config import AnonymizationConfig
from repro.engine.evaluator import MethodEvaluator
from repro.engine.experiment import ParameterSweep
from repro.engine.pool import WorkerPool
from repro.engine.resilience import ExecutionPolicy
from repro.engine.resources import ExperimentResources
from repro.engine.results import ComparisonReport, EvaluationReport, SweepResult
from repro.engine.runner import Execution, ExecutionMode
from repro.exceptions import ConfigurationError
from repro.frontend.editors import ConfigurationEditor, QueriesEditor
from repro.frontend.export import DataExportModule
from repro.frontend.plotting import Figure, render_histogram
from repro.hierarchy.hierarchy import Hierarchy
from repro.policies.privacy import PrivacyPolicy
from repro.policies.utility import UtilityPolicy
from repro.queries.workload import QueryWorkload


class Session:
    """One interactive SECRETA session over a single dataset."""

    def __init__(self, dataset: Dataset):
        self.dataset = dataset
        self.dataset_editor = DatasetEditor(dataset)
        self.configuration_editor = ConfigurationEditor(dataset)
        self.queries_editor = QueriesEditor(dataset)
        self._verify_privacy = True
        self._checkpoint: CheckpointStore | None = None

    # -- constructors --------------------------------------------------------------
    @classmethod
    def from_csv(cls, path: str | Path, **load_kwargs: Any) -> "Session":
        """Open a session on a CSV dataset (the Dataset Editor's load action)."""
        return cls(load_csv(path, **load_kwargs))

    @classmethod
    def generate_rt(cls, n_records: int = 1000, n_items: int = 60, seed: int = 13, **kwargs) -> "Session":
        """Open a session on a synthetic RT-dataset (the demo's ready-to-use data)."""
        return cls(generate_rt_dataset(n_records=n_records, n_items=n_items, seed=seed, **kwargs))

    @classmethod
    def generate_relational(cls, n_records: int = 1000, seed: int = 7, **kwargs) -> "Session":
        return cls(generate_adult_like(n_records=n_records, seed=seed, **kwargs))

    @classmethod
    def generate_transactions(cls, n_records: int = 1000, n_items: int = 60, seed: int = 11, **kwargs) -> "Session":
        return cls(generate_market_basket(n_records=n_records, n_items=n_items, seed=seed, **kwargs))

    # -- dataset analysis -------------------------------------------------------------
    def summary(self) -> dict:
        """Per-attribute dataset statistics (the main screen's bottom pane)."""
        return dataset_summary(self.dataset)

    def histogram(self, attribute: str, bins: int = 10) -> dict:
        return attribute_histogram(self.dataset, attribute, bins=bins)

    def histogram_text(self, attribute: str, bins: int = 10, width: int = 40) -> str:
        return render_histogram(self.histogram(attribute, bins=bins), width=width)

    # -- checkpointing ----------------------------------------------------------------
    @property
    def checkpoint(self) -> CheckpointStore | None:
        """The session's durable checkpoint store, if one is configured."""
        return self._checkpoint

    def with_checkpoints(
        self, directory: str | Path | CheckpointStore
    ) -> "Session":
        """Enable durable checkpointing for this session's sweeps/comparisons.

        Completed (configuration, parameter value) cells are persisted under
        ``directory`` and a re-run — after a crash, SIGKILL or power loss —
        recomputes only the missing cells (see ``docs/robustness.md``,
        "Checkpoint & resume").  Returns ``self`` so it chains::

            session = Session.generate_rt(seed=1).with_checkpoints("ckpt/")
        """
        self._checkpoint = (
            directory
            if isinstance(directory, CheckpointStore)
            else CheckpointStore(directory)
        )
        return self

    # -- resources ----------------------------------------------------------------------
    @property
    def verify_privacy(self) -> bool:
        """Whether evaluation reports include the (expensive) privacy verification."""
        return self._verify_privacy

    @verify_privacy.setter
    def verify_privacy(self, value: bool) -> None:
        self._verify_privacy = bool(value)

    def resources(
        self,
        hierarchies: dict[str, Hierarchy] | None = None,
        item_hierarchy: Hierarchy | None = None,
        privacy_policy: PrivacyPolicy | None = None,
        utility_policy: UtilityPolicy | None = None,
        workload: QueryWorkload | None = None,
    ) -> ExperimentResources:
        """Bundle the session's editors' state into experiment resources.

        Explicit arguments override whatever the editors currently hold;
        anything still missing is generated automatically when a run needs it.
        """
        editor_hierarchies = dict(self.configuration_editor.hierarchies)
        transaction_names = self.dataset.schema.transaction_names
        editor_item_hierarchy = None
        if transaction_names and transaction_names[0] in editor_hierarchies:
            editor_item_hierarchy = editor_hierarchies.pop(transaction_names[0])
        return ExperimentResources(
            hierarchies={**editor_hierarchies, **(hierarchies or {})},
            item_hierarchy=item_hierarchy or editor_item_hierarchy,
            privacy_policy=privacy_policy or self.configuration_editor.privacy_policy,
            utility_policy=utility_policy or self.configuration_editor.utility_policy,
            workload=workload or self.queries_editor.workload,
        )

    # -- evaluation mode -------------------------------------------------------------------
    def evaluate(
        self,
        config: AnonymizationConfig,
        resources: ExperimentResources | None = None,
        simulate_attacks: bool = False,
    ) -> EvaluationReport:
        """Run one configuration and compute all Evaluation-mode indicators.

        ARE resolves generalized labels against the original dataset's
        attribute domains, consistent with the utility-loss charging rule
        (see ``docs/queries.md``).  ``simulate_attacks=True``
        additionally plays the prior-knowledge re-identification adversary
        against the anonymized output and attaches the empirical guarantees
        to the report (see ``docs/validation.md``).
        """
        evaluator = MethodEvaluator(
            self.dataset,
            resources or self.resources(),
            verify_privacy=self._verify_privacy,
            simulate_attacks=simulate_attacks,
        )
        return evaluator.evaluate(config)

    def worker_pool(self, max_workers: int | None = None) -> WorkerPool:
        """A persistent process pool for repeated sweeps and comparisons.

        The pool spawns its workers once, and the first process-mode
        ``sweep``/``compare`` call that uses it exports its dataset to shared
        memory; the export is cached, so consecutive calls over the same
        (unmutated) dataset ship only small task manifests.  Use it as a
        context manager
        (or call ``close()``) so the workers shut down and the shared-memory
        segments are unlinked::

            with session.worker_pool() as pool:
                session.sweep(config_a, "k", 2, 10, 2, mode="process", pool=pool)
                session.sweep(config_b, "k", 2, 10, 2, mode="process", pool=pool)

        The pool holds no execution policy: each ``sweep``/``compare`` call
        passes its own ``policy`` (see ``docs/robustness.md``).
        """
        return WorkerPool(max_workers=max_workers)

    def sweep(
        self,
        config: AnonymizationConfig,
        parameter: str,
        start: float,
        end: float,
        step: float,
        resources: ExperimentResources | None = None,
        mode: ExecutionMode = "sequential",
        max_workers: int | None = None,
        pool: WorkerPool | None = None,
        policy: ExecutionPolicy | None = None,
        checkpoint: CheckpointStore | None = None,
        simulate_attacks: bool = False,
    ) -> SweepResult:
        """Varying-parameter execution of a single configuration.

        ``mode="process"`` evaluates the sweep points in parallel worker
        processes (the algorithms are CPU-bound, so this is the mode that
        actually uses multiple cores); ``max_workers`` caps the pool.  The
        dataset travels to the workers through shared memory, and a
        persistent ``pool`` (see :meth:`worker_pool`) reuses the workers and
        the export across calls.  ``policy`` tunes fault
        tolerance (retries, timeouts, degradation).  Every run keeps a
        :class:`~repro.engine.resilience.RunReport`, on the result's
        ``run_report``.
        """
        experiment = VaryingParameterExperiment(
            self.dataset,
            resources or self.resources(),
            verify_privacy=False,
            execution=Execution(
                mode=mode,
                max_workers=max_workers,
                pool=pool,
                policy=policy,
                checkpoint=checkpoint or self._checkpoint,
            ),
            simulate_attacks=simulate_attacks,
        )
        return experiment.run(config, ParameterSweep.from_range(parameter, start, end, step))

    # -- comparison mode ---------------------------------------------------------------------
    def compare(
        self,
        configurations: Sequence[AnonymizationConfig],
        parameter: str,
        start: float,
        end: float,
        step: float,
        resources: ExperimentResources | None = None,
        mode: ExecutionMode = "sequential",
        max_workers: int | None = None,
        pool: WorkerPool | None = None,
        policy: ExecutionPolicy | None = None,
        checkpoint: CheckpointStore | None = None,
        simulate_attacks: bool = False,
    ) -> ComparisonReport:
        """Run several configurations across a sweep and collect their series.

        ``mode="process"`` fans the (configuration, value) cells out across
        CPU cores (capped by ``max_workers``), shipping the dataset through
        shared memory; a persistent ``pool`` (see :meth:`worker_pool`) reuses the
        workers and the export across calls.  ``policy`` tunes fault tolerance.
        Every run keeps a :class:`~repro.engine.resilience.RunReport`, one
        task per cell, on the report's ``run_report``.
        """
        if not configurations:
            raise ConfigurationError("the Comparison mode needs at least one configuration")
        comparator = MethodComparator(
            self.dataset,
            resources or self.resources(),
            verify_privacy=False,
            execution=Execution(
                mode=mode,
                max_workers=max_workers,
                pool=pool,
                policy=policy,
                checkpoint=checkpoint or self._checkpoint,
            ),
            simulate_attacks=simulate_attacks,
        )
        return comparator.compare(
            configurations, ParameterSweep.from_range(parameter, start, end, step)
        )

    # -- export -----------------------------------------------------------------------------
    def exporter(self, directory: str | Path) -> DataExportModule:
        """A Data Export Module rooted at ``directory``."""
        return DataExportModule(directory)

    def export_all_inputs(self, directory: str | Path) -> dict[str, Path]:
        """Export the dataset plus whatever hierarchies/policies/workload exist."""
        exporter = self.exporter(directory)
        written: dict[str, Path] = {"dataset": exporter.export_dataset(self.dataset)}
        if self.configuration_editor.hierarchies:
            written.update(exporter.export_hierarchies(self.configuration_editor.hierarchies))
        policies = exporter.export_policies(
            self.configuration_editor.privacy_policy,
            self.configuration_editor.utility_policy,
        )
        written.update(policies)
        if self.queries_editor.workload is not None:
            written["workload"] = exporter.export_workload(self.queries_editor.workload)
        return written
