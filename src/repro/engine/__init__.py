"""The SECRETA backend: configurations, execution, evaluation and comparison."""

from __future__ import annotations

from repro.engine.anonymizer import AnonymizationModule
from repro.engine.checkpoint import (
    CheckpointOutcome,
    CheckpointStore,
    atomic_write_bytes,
    stable_digest,
)
from repro.engine.comparator import MethodComparator, VaryingParameterExperiment
from repro.engine.config import (
    SWEEPABLE_PARAMETERS,
    AnonymizationConfig,
    relational_config,
    rt_config,
    transaction_config,
)
from repro.engine.evaluator import MethodEvaluator
from repro.engine.experiment import SWEEP_INDICATORS, ParameterSweep, indicator_series
from repro.engine.pool import WorkerPool
from repro.engine.resilience import (
    DEFAULT_POLICY,
    ExecutionPolicy,
    RunReport,
    TaskAttempt,
    TaskReport,
    execute_tasks,
)
from repro.engine.resources import ExperimentResources
from repro.engine.results import (
    ComparisonReport,
    EvaluationReport,
    Series,
    SweepResult,
    merge_series,
)
from repro.engine.runner import EXECUTION_MODES, Execution, fan_out_shared, run_many

__all__ = [
    "EXECUTION_MODES",
    "Execution",
    "AnonymizationModule",
    "MethodComparator",
    "MethodEvaluator",
    "SWEEPABLE_PARAMETERS",
    "SWEEP_INDICATORS",
    "AnonymizationConfig",
    "relational_config",
    "rt_config",
    "transaction_config",
    "ParameterSweep",
    "VaryingParameterExperiment",
    "indicator_series",
    "ExperimentResources",
    "ComparisonReport",
    "EvaluationReport",
    "Series",
    "SweepResult",
    "merge_series",
    "run_many",
    "WorkerPool",
    "fan_out_shared",
    "DEFAULT_POLICY",
    "ExecutionPolicy",
    "RunReport",
    "TaskAttempt",
    "TaskReport",
    "execute_tasks",
    "CheckpointOutcome",
    "CheckpointStore",
    "atomic_write_bytes",
    "stable_digest",
]
