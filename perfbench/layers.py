"""Spans around calls into the program's layers, recorded from outside it.

The benchmark does not edit ``src/``.  Instead a :class:`Tracer` replaces
the names each layer's public functions are bound to — in the module that
calls them, e.g. ``repro.engine.evaluator.average_relative_error`` — with
timing wrappers, and puts the originals back afterwards.  Every wrapped call
is a span; a span's *self time* is its duration minus the time of the spans
it encloses, so the self times of all spans plus the untraced remainder add
up to the wall time of the traced call.
"""

from __future__ import annotations

import importlib
import time
from collections import defaultdict
from typing import Any, Callable

#: (module, attribute path, layer) for the calls made while preparing
#: resources — the set-up phase.
SETUP_SPANS = (
    ("repro.datasets.domains", "DatasetDomains.capture", "datasets.domains"),
    ("repro.engine.resources", "build_hierarchies_for_dataset", "hierarchy.build"),
    ("repro.engine.resources", "build_item_hierarchy", "hierarchy.build"),
    ("repro.engine.resources", "generate_privacy_policy", "policies.generate"),
    ("repro.engine.resources", "generate_utility_policy", "policies.generate"),
    ("repro.engine.resources", "generate_query_workload", "queries.workload"),
)

#: (module, attribute path, layer) for the calls made by the timed
#: ``Session`` call.  Only the parent process's calls are recorded; worker
#: processes report back through the per-cell reports instead.
CALL_SPANS = (
    ("repro.engine.evaluator", "AnonymizationModule.run", "algorithms.run"),
    ("repro.engine.evaluator", "average_relative_error", "queries.are"),
    ("repro.engine.evaluator", "global_certainty_penalty", "metrics.utility"),
    ("repro.engine.evaluator", "discernibility_metric", "metrics.utility"),
    ("repro.engine.evaluator", "average_class_size", "metrics.utility"),
    ("repro.engine.evaluator", "utility_loss", "metrics.utility"),
    ("repro.engine.evaluator", "average_item_frequency_error", "metrics.utility"),
    ("repro.engine.evaluator", "item_frequency_error", "metrics.utility"),
    ("repro.engine.evaluator", "generalized_value_frequencies", "metrics.utility"),
    ("repro.engine.evaluator", "min_class_size", "metrics.privacy"),
    ("repro.engine.evaluator", "k_violations", "metrics.privacy"),
    ("repro.engine.evaluator", "km_violations", "metrics.privacy"),
    ("repro.engine.evaluator", "k_km_violations", "metrics.privacy"),
    ("repro.engine.evaluator", "qi_attack", "attacks.qi"),
    ("repro.engine.evaluator", "item_attack", "attacks.item"),
    ("repro.engine.evaluator", "rt_attack", "attacks.rt"),
    ("repro.engine.pool", "WorkerPool.share", "columnar.export"),
    ("repro.engine.comparator", "fan_out_shared", "engine.fanout"),
    ("repro.engine.pool", "WorkerPool.close", "engine.fanout"),
    ("repro.engine.comparator", "configuration_keys", "engine.checkpoint"),
    ("repro.engine.checkpoint", "CheckpointStore.load", "engine.checkpoint"),
)


def _resolve(module_name: str, path: str) -> tuple[Any, str]:
    owner: Any = importlib.import_module(module_name)
    *parents, attribute = path.split(".")
    for parent in parents:
        owner = getattr(owner, parent)
    return owner, attribute


class Tracer:
    """Per-layer self time and call counts of the wrapped calls."""

    def __init__(self, spans: tuple[tuple[str, str, str], ...]) -> None:
        self._spans = spans
        self._saved: list[tuple[Any, str, Any]] = []
        self._stack: list[float] = []
        self.self_seconds: dict[str, float] = defaultdict(float)
        self.calls: dict[str, int] = defaultdict(int)
        #: Seconds inside outermost spans: the traced part of the wall time.
        self.covered_seconds = 0.0
        #: Array payload of every dataset export made under the tracer.
        self.export_bytes = 0

    def _wrap(self, function: Callable[..., Any], layer: str) -> Callable[..., Any]:
        stack = self._stack

        def traced(*args: Any, **kwargs: Any) -> Any:
            stack.append(0.0)
            started = time.perf_counter()
            try:
                result = function(*args, **kwargs)
            finally:
                duration = time.perf_counter() - started
                children = stack.pop()
                self.self_seconds[layer] += duration - children
                self.calls[layer] += 1
                if stack:
                    stack[-1] += duration
                else:
                    self.covered_seconds += duration
            if layer == "columnar.export":
                self.export_bytes += result.total_bytes
            return result

        return traced

    def __enter__(self) -> "Tracer":
        for module_name, path, layer in self._spans:
            owner, attribute = _resolve(module_name, path)
            original = owner.__dict__[attribute]
            if isinstance(original, classmethod):
                replacement: Any = classmethod(self._wrap(original.__func__, layer))
            else:
                replacement = self._wrap(original, layer)
            self._saved.append((owner, attribute, original))
            setattr(owner, attribute, replacement)
        return self

    def __exit__(self, *exc_info: object) -> None:
        while self._saved:
            owner, attribute, original = self._saved.pop()
            setattr(owner, attribute, original)
