"""REP006 — worker-pool payloads must survive pickling.

``WorkerPool`` pickles everything that crosses the process boundary: each
task and the worker callable.  The manifest's ``spec_classes`` are the
dataclasses shipped inside task tuples; this rule bans fields whose types
can never pickle (locks, shared-memory handles, open files, executors) and
lambda defaults.  It also checks the worker argument of the pool entry
points (``run_many``/``fan_out_shared``/``pool.map``) whenever the call's
``Execution`` can select process mode: a lambda literal there can never
pickle, so the rule flags it at lint time.  A worker that is a local
function, or that a factory builds, is rejected when the fan-out starts, by
:func:`repro.engine.pool.require_picklable_worker`.
"""

from __future__ import annotations

import ast
from typing import Iterable

from repro.analysis.core import Finding, ModuleContext, Rule, register
from repro.analysis.manifest import InvariantManifest, WorkerCall


def _annotation_names(annotation: ast.expr) -> Iterable[str]:
    for node in ast.walk(annotation):
        if isinstance(node, ast.Name):
            yield node.id
        elif isinstance(node, ast.Attribute):
            yield node.attr
        elif isinstance(node, ast.Constant) and isinstance(node.value, str):
            # String annotations ("Lock") still name the type.
            yield node.value.split("[")[0].strip()


def _worker_call_key(
    call: ast.Call, worker_calls: dict[str, WorkerCall]
) -> tuple[str, WorkerCall] | None:
    func = call.func
    if isinstance(func, ast.Name) and func.id in worker_calls:
        return func.id, worker_calls[func.id]
    if isinstance(func, ast.Attribute):
        receiver = func.value
        receiver_name = (
            receiver.id
            if isinstance(receiver, ast.Name)
            else receiver.attr
            if isinstance(receiver, ast.Attribute)
            else ""
        )
        for key, spec in worker_calls.items():
            if "." in key:
                key_receiver, _, key_attr = key.partition(".")
                if func.attr == key_attr and key_receiver in receiver_name:
                    return key, spec
            elif func.attr == key:
                return key, spec
    return None


def _argument(call: ast.Call, index: int, name: str) -> ast.expr | None:
    """The argument passed at positional ``index`` or as keyword ``name``."""
    for keyword in call.keywords:
        if keyword.arg == name:
            return keyword.value
    return call.args[index] if index < len(call.args) else None


def _can_reach_process_mode(call: ast.Call, spec: WorkerCall) -> bool:
    """Whether this call site can end up pickling its worker."""
    if spec.process_only:
        return True
    execution = _argument(call, spec.arg + 1, "execution")
    if execution is None:
        return False  # the default Execution() is sequential
    if isinstance(execution, ast.Call):
        func = execution.func
        callee = func.id if isinstance(func, ast.Name) else getattr(func, "attr", None)
        if callee == "Execution":
            mode = _argument(execution, 0, "mode")
            if mode is None:
                return False  # Execution() defaults to sequential
            if isinstance(mode, ast.Constant) and isinstance(mode.value, str):
                return mode.value == "process"
    return True  # a variable or computed Execution: assume the worst


@register
class ProcessSafety(Rule):
    code = "REP006"
    name = "process-safety"
    summary = "pool payload classes and lambda workers must be picklable"
    explanation = (
        "WorkerPool pickles every task payload and the worker callable into "
        "its worker processes, whatever the platform's start method.  The "
        "manifest's spec_classes (AnonymizationConfig, ExperimentResources, "
        "ParameterSweep, the shared-memory manifests) must therefore not "
        "declare fields typed as locks, threads, SharedMemory handles, open "
        "files, executors or pools — those either fail to pickle or, worse, "
        "pickle into a disconnected copy.  Lambda field defaults, and lambda "
        "workers passed to run_many/fan_out_shared/pool.map when the call "
        "can reach process mode, can never pickle; this rule flags them at "
        "lint time.  A worker that is a local function or built by a "
        "factory is rejected at fan-out time by require_picklable_worker "
        "with a ConfigurationError.  Hold live resources in the runner "
        "process and ship names/specs, as SharedDatasetManifest does."
    )

    def check_module(
        self, module: ModuleContext, manifest: InvariantManifest
    ) -> Iterable[Finding]:
        forbidden = frozenset(manifest.forbidden_field_types)
        spec_classes = frozenset(manifest.spec_classes)
        worker_calls = dict(manifest.worker_calls)

        for node in module.walk():
            if isinstance(node, ast.ClassDef):
                if f"{module.relpath}::{module.qualname(node)}" not in spec_classes:
                    continue
                yield from self._check_spec_class(module, node, forbidden)
            elif isinstance(node, ast.Call) and worker_calls:
                yield from self._check_worker_call(module, node, worker_calls)

    def _check_spec_class(
        self, module: ModuleContext, node: ast.ClassDef, forbidden: frozenset[str]
    ) -> Iterable[Finding]:
        for statement in node.body:
            if isinstance(statement, ast.AnnAssign) and isinstance(
                statement.target, ast.Name
            ):
                bad = sorted(
                    set(_annotation_names(statement.annotation)) & forbidden
                )
                if bad:
                    yield module.finding(
                        self,
                        statement,
                        f"field {statement.target.id!r} is typed as "
                        f"unpicklable {', '.join(bad)}; ship a name/spec and "
                        f"reopen the resource in the worker",
                    )
            for inner in ast.walk(statement):
                if isinstance(inner, ast.Lambda):
                    yield module.finding(
                        self,
                        inner,
                        "lambda in a pool payload class does not pickle; "
                        "use a module-level function",
                    )
                    break

    def _check_worker_call(
        self, module: ModuleContext, call: ast.Call, worker_calls: dict[str, WorkerCall]
    ) -> Iterable[Finding]:
        resolved = _worker_call_key(call, worker_calls)
        if resolved is None:
            return
        key, spec = resolved
        if not _can_reach_process_mode(call, spec):
            return
        worker = _argument(call, spec.arg, "worker")
        if isinstance(worker, ast.Lambda):
            yield module.finding(
                self,
                worker,
                f"lambda worker passed to {key}() cannot pickle; use a "
                f"module-level function",
            )
