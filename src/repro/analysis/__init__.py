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

The rules (REP000–REP008) are syntactic checks over one module at a time;
only REP006 also consults the project call graph (:mod:`repro.analysis.graph`)
to resolve worker names and factories.  A rule stays only while it catches
bugs no other rule catches.

Findings can be silenced three ways, in order of preference: fix the code,
suppress one line with ``# repro: allow[REP0xx] -- reason`` (the reason is
mandatory), or grandfather a pre-existing finding into the committed
baseline file (``.repro-lint-baseline.json``) with a reason.  See
``docs/static-analysis.md`` for the rule catalogue and etiquette, and
``python -m repro.analysis --explain REP001`` for any single rule.
"""

from __future__ import annotations

from repro.analysis.baseline import Baseline
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
    "Baseline",
    "Finding",
    "InvariantManifest",
    "ModuleContext",
    "Project",
    "Rule",
    "all_rules",
    "analyze_paths",
    "rule_by_code",
]
