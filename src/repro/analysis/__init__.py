"""``repro.analysis`` — the project's AST-based invariant linter (repro-lint).

The columnar/shared-memory/cache subsystems built in PRs 1-5 rest on
conventions that code review alone used to enforce: every shared-memory
segment must unlink on every exit path, every dataset mutation must
invalidate the columnar cache, every vectorized kernel must keep a scalar
equivalence reference, hot paths must not regress to per-record Python
loops, exceptions must stay typed, and anything shipped through the worker
pool must stay picklable.  This package turns each of those disciplines into
a mechanical check (one ``REP0xx`` rule each) that runs over the source tree
as a CI gate:

``python -m repro.analysis [paths...]``

The rules (REP000–REP006 and REP008) are syntactic checks over one module at
a time, plus manifest-driven symbol resolution.  A rule stays only while it
catches bugs that neither another rule, a runtime guard nor a narrower test
already catches.

A finding is either fixed or suppressed on its line with
``# repro: allow[REP0xx] -- reason`` (the reason is mandatory).  See
``docs/static-analysis.md`` for the rule catalogue and etiquette, and
``python -m repro.analysis --explain REP001`` for any single rule.
"""

from __future__ import annotations

from repro.analysis.core import (
    AnalysisReport,
    Finding,
    ModuleContext,
    Project,
    Rule,
    all_rules,
    analyze_paths,
    rule_by_code,
)
from repro.analysis.manifest import InvariantManifest

__all__ = [
    "AnalysisReport",
    "Finding",
    "InvariantManifest",
    "ModuleContext",
    "Project",
    "Rule",
    "all_rules",
    "analyze_paths",
    "rule_by_code",
]
