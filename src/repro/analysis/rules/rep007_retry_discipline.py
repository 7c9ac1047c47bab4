"""REP007 — retry discipline in the execution engine.

PR 7 made the engine fault tolerant, and fault tolerance is exactly the kind
of code that rots into hazards: a quick ``while True: submit(...)`` around a
flaky call, a ``time.sleep(1)`` "just to let things settle".  Both defeat the
design — the engine's one retry authority is the bounded
:class:`~repro.engine.resilience.ExecutionPolicy` (``max_attempts`` per
ladder rung), so every retry terminates and every faulted run is
reproducible.

Inside the ``[rep007] scope`` prefixes this rule flags:

* **unbounded retry loops** — a ``while`` whose test is a constant truthy
  value (``while True``) and whose body reaches one of the manifest's
  ``resubmit_calls`` (``submit``, ``map``, ``execute_tasks``, ``run_many``).
  Retry loops must be bounded by policy state (``while pending``,
  ``while not state.done`` with a charged attempt per iteration), never by
  hope.
* **bare sleep backoff** — any ``time.sleep`` call outside the manifest's
  ``sleep_helpers``.  The engine's list is empty: a charged retry is
  resubmitted at once, because the crashed or hung worker generation has
  already been torn down, so no engine code has a reason to sleep.  Ad-hoc
  sleeps hide races instead of fixing them and add nondeterministic wall
  time to every run.

Deliberate exceptions (a sleep that is itself the behaviour under test)
carry a reasoned ``# repro: allow[REP007]``.
"""

from __future__ import annotations

import ast
from typing import Iterable, Iterator

from repro.analysis.core import Finding, ModuleContext, Rule, register
from repro.analysis.manifest import InvariantManifest


def _is_constant_true(test: ast.expr) -> bool:
    return isinstance(test, ast.Constant) and bool(test.value)


def _call_name(node: ast.Call) -> str | None:
    """The terminal name of a call: ``pool.submit(...)`` -> ``submit``."""
    func = node.func
    if isinstance(func, ast.Attribute):
        return func.attr
    if isinstance(func, ast.Name):
        return func.id
    return None


def _body_calls(loop: ast.While) -> Iterator[ast.Call]:
    """Calls inside the loop body, without descending into nested functions."""
    stack: list[ast.AST] = list(loop.body) + list(loop.orelse)
    while stack:
        node = stack.pop()
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)):
            continue
        if isinstance(node, ast.Call):
            yield node
        stack.extend(ast.iter_child_nodes(node))


def _is_sleep_call(node: ast.Call) -> bool:
    func = node.func
    if isinstance(func, ast.Attribute) and func.attr == "sleep":
        # time.sleep / anything.sleep — the attribute form.
        return True
    return isinstance(func, ast.Name) and func.id == "sleep"


@register
class RetryDiscipline(Rule):
    code = "REP007"
    name = "retry-discipline"
    summary = "retries must consult a bounded ExecutionPolicy; no while-True submits, no bare sleep backoff"
    explanation = (
        "Inside the [rep007] scope, every retry must be bounded by "
        "ExecutionPolicy state: a `while True` loop that reaches a "
        "submission call (the manifest's resubmit_calls) can spin forever "
        "on a persistent fault — bound it on pending/attempt state and "
        "charge an attempt per iteration so policy.max_attempts "
        "terminates it.  Likewise, no engine code sleeps outside the "
        "manifest's sleep_helpers (empty for the engine: a retry is "
        "resubmitted at once); a bare time.sleep hides races and adds "
        "nondeterministic wall time. "
        "A sleep that is itself the behaviour under test carries a "
        "reasoned `# repro: allow[REP007]`."
    )

    def check_module(
        self, module: ModuleContext, manifest: InvariantManifest
    ) -> Iterable[Finding]:
        scope = manifest.retry_scope
        if scope and not module.relpath.startswith(tuple(scope)):
            return
        resubmit = frozenset(manifest.resubmit_calls)
        sleep_helpers = frozenset(manifest.sleep_helpers)
        for node in module.walk():
            if isinstance(node, ast.While) and _is_constant_true(node.test):
                submits = sorted(
                    {
                        name
                        for name in map(_call_name, _body_calls(node))
                        if name is not None and name in resubmit
                    }
                )
                if submits:
                    yield module.finding(
                        self,
                        node,
                        f"unbounded 'while True' retry loop around "
                        f"{', '.join(submits)}(); bound the loop on "
                        f"ExecutionPolicy state (max_attempts / pending "
                        f"tasks) so a persistent fault terminates",
                    )
            elif isinstance(node, ast.Call) and _is_sleep_call(node):
                site = f"{module.relpath}::{module.qualname(node)}"
                if site in sleep_helpers:
                    continue
                yield module.finding(
                    self,
                    node,
                    "bare sleep in engine code; a retry is resubmitted at "
                    "once, so remove the sleep or allow-list this site in "
                    "the manifest's sleep_helpers",
                )
