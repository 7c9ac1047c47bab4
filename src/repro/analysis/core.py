"""Visitor core of the invariant linter: modules, findings, rules, projects.

The framework is deliberately small: a :class:`ModuleContext` wraps one
parsed source file (AST + parent links + qualified names + suppression
comments), a :class:`Rule` contributes findings per module and, for
cross-file invariants, once per :class:`Project` after every module has been
visited.  Everything is pure ``ast``/stdlib — the linter must run in the
barest CI container before any dependency is installed.
"""

from __future__ import annotations

import ast
import re
from dataclasses import dataclass, field, replace
from pathlib import Path
from typing import Iterable, Iterator, Sequence

from repro.analysis.manifest import InvariantManifest
from repro.exceptions import AnalysisError

#: ``# repro: allow[REP001] -- reason`` (also accepts ``:`` or an em-dash
#: before the reason, and a comma-separated code list).
_SUPPRESSION = re.compile(
    r"#\s*repro:\s*allow\[(?P<codes>[A-Za-z]+\d+(?:\s*,\s*[A-Za-z]+\d+)*)\]"
    r"(?:\s*(?:--|—|:)\s*(?P<reason>.*?))?\s*$"
)

_CODE_FORMAT = re.compile(r"^REP\d{3}$")


@dataclass(frozen=True)
class Finding:
    """One rule violation at one source location."""

    code: str
    message: str
    path: str  # root-relative POSIX path
    line: int
    column: int
    symbol: str = ""  # enclosing qualified name, "" at module level
    #: Set by the driver, not by rules:
    suppressed: bool = False
    suppression_reason: str = ""

    @property
    def is_new(self) -> bool:
        """Whether the finding should fail the run."""
        return not self.suppressed

    def location(self) -> str:
        return f"{self.path}:{self.line}:{self.column}"


@dataclass(frozen=True)
class Suppression:
    """One parsed ``# repro: allow[...]`` comment."""

    line: int
    codes: frozenset[str]
    reason: str
    #: True when the comment sits alone on its line, in which case it covers
    #: the next line instead of its own.
    standalone: bool


class ModuleContext:
    """One parsed source module plus the derived lookups rules need."""

    def __init__(self, root: Path, path: Path, source: str) -> None:
        self.root = root
        self.path = path
        self.relpath = path.relative_to(root).as_posix()
        self.lines = source.splitlines()
        self.tree = ast.parse(source, filename=str(path))
        self._parents: dict[ast.AST, ast.AST] = {}
        self._qualnames: dict[ast.AST, str] = {}
        self._link(self.tree, parent=None, scope="")
        self.suppressions, self.bad_suppressions = self._parse_suppressions()

    # -- construction ---------------------------------------------------------
    def _link(self, node: ast.AST, parent: ast.AST | None, scope: str) -> None:
        """Record parent links and the enclosing qualified name of every node."""
        if parent is not None:
            self._parents[node] = parent
        self._qualnames[node] = scope
        child_scope = scope
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            child_scope = f"{scope}.{node.name}" if scope else node.name
            self._qualnames[node] = child_scope
        for child in ast.iter_child_nodes(node):
            self._link(child, parent=node, scope=child_scope)

    def _parse_suppressions(self) -> tuple[list[Suppression], list[Finding]]:
        suppressions: list[Suppression] = []
        problems: list[Finding] = []
        for lineno, text in enumerate(self.lines, start=1):
            match = _SUPPRESSION.search(text)
            if match is None:
                continue
            codes = frozenset(
                code.strip() for code in match.group("codes").split(",")
            )
            reason = (match.group("reason") or "").strip()
            standalone = text.lstrip().startswith("#")
            unknown = sorted(code for code in codes if not _CODE_FORMAT.match(code))
            if unknown:
                problems.append(
                    Finding(
                        code="REP000",
                        message=(
                            f"suppression names unknown code(s) {unknown}; "
                            f"expected REPnnn"
                        ),
                        path=self.relpath,
                        line=lineno,
                        column=0,
                    )
                )
                continue
            if not reason:
                problems.append(
                    Finding(
                        code="REP000",
                        message=(
                            "suppression without a reason; write "
                            "'# repro: allow[REPnnn] -- why this is safe'"
                        ),
                        path=self.relpath,
                        line=lineno,
                        column=0,
                    )
                )
                continue
            suppressions.append(
                Suppression(
                    line=lineno, codes=codes, reason=reason, standalone=standalone
                )
            )
        return suppressions, problems

    # -- lookups --------------------------------------------------------------
    def ancestors(self, node: ast.AST) -> Iterator[ast.AST]:
        current = self._parents.get(node)
        while current is not None:
            yield current
            current = self._parents.get(current)

    def qualname(self, node: ast.AST) -> str:
        """The qualified name of the scope enclosing ``node``."""
        return self._qualnames.get(node, "")

    def enclosing_function(
        self, node: ast.AST
    ) -> ast.FunctionDef | ast.AsyncFunctionDef | None:
        for ancestor in self.ancestors(node):
            if isinstance(ancestor, (ast.FunctionDef, ast.AsyncFunctionDef)):
                return ancestor
        return None

    def walk(self) -> Iterator[ast.AST]:
        return ast.walk(self.tree)

    def suppression_for(self, finding: Finding) -> Suppression | None:
        """The suppression covering ``finding``'s line, if any."""
        for suppression in self.suppressions:
            if finding.code not in suppression.codes:
                continue
            covered = (
                suppression.line + 1 if suppression.standalone else suppression.line
            )
            if finding.line == covered or finding.line == suppression.line:
                return suppression
        return None

    # -- finding construction --------------------------------------------------
    def finding(self, rule: "Rule", node: ast.AST, message: str) -> Finding:
        return Finding(
            code=rule.code,
            message=message,
            path=self.relpath,
            line=getattr(node, "lineno", 1),
            column=getattr(node, "col_offset", 0),
            symbol=self.qualname(node),
        )


class Project:
    """All analyzed modules plus cross-file symbol resolution."""

    def __init__(
        self,
        root: Path,
        modules: Sequence[ModuleContext],
        manifest: InvariantManifest,
    ) -> None:
        self.root = root
        self.modules = list(modules)
        self.manifest = manifest
        self._by_relpath = {module.relpath: module for module in self.modules}
        self._symbol_cache: dict[str, frozenset[str] | None] = {}

    def module(self, relpath: str) -> ModuleContext | None:
        return self._by_relpath.get(relpath)

    def symbols_in(self, relpath: str) -> frozenset[str] | None:
        """Top-level defined names of ``relpath`` (``None`` if unreadable).

        Includes nested qualified names (``Class.method``, ``Class.attr`` for
        class-level assignments, ``outer.inner`` for nested functions), so
        manifest references can point at any declared symbol.  Files outside
        the analyzed path set (e.g. test modules referenced as parity
        fallbacks while only ``src`` is being linted) are parsed on demand.
        """
        cached = self._symbol_cache.get(relpath)
        if cached is not None or relpath in self._symbol_cache:
            return cached
        module = self._by_relpath.get(relpath)
        tree: ast.AST | None
        if module is not None:
            tree = module.tree
        else:
            candidate = self.root / relpath
            try:
                tree = ast.parse(candidate.read_text(), filename=str(candidate))
            except (OSError, SyntaxError):
                tree = None
        symbols = None if tree is None else frozenset(_collect_symbols(tree))
        self._symbol_cache[relpath] = symbols
        return symbols

    def resolves(self, reference: str) -> bool:
        """Whether a ``path.py::qualified.name`` manifest reference exists."""
        path, _, symbol = reference.partition("::")
        symbols = self.symbols_in(path)
        if symbols is None:
            return False
        return True if not symbol else symbol in symbols


def _collect_symbols(tree: ast.AST, scope: str = "") -> Iterator[str]:
    for node in ast.iter_child_nodes(tree):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            name = f"{scope}.{node.name}" if scope else node.name
            yield name
            yield from _collect_symbols(node, scope=name)
        elif isinstance(node, ast.Assign) and scope:
            for target in node.targets:
                if isinstance(target, ast.Name):
                    yield f"{scope}.{target.id}"
        elif isinstance(node, ast.AnnAssign) and scope:
            if isinstance(node.target, ast.Name):
                yield f"{scope}.{node.target.id}"


class Rule:
    """Base class: one invariant, one ``REPnnn`` code.

    Subclasses set the class attributes and implement :meth:`check_module`
    (per-file findings) and/or :meth:`finalize` (cross-file findings, called
    once after every module was visited).  ``scope_prefixes`` restricts the
    per-module check to root-relative path prefixes (``None`` = everywhere);
    rules with manifest-driven scoping leave it ``None`` and filter
    themselves.
    """

    code: str = "REP000"
    name: str = "unnamed"
    summary: str = ""
    explanation: str = ""
    scope_prefixes: tuple[str, ...] | None = None

    def applies_to(self, module: ModuleContext) -> bool:
        if self.scope_prefixes is None:
            return True
        return module.relpath.startswith(self.scope_prefixes)

    def check_module(
        self, module: ModuleContext, manifest: InvariantManifest
    ) -> Iterable[Finding]:
        return ()

    def finalize(self, project: Project) -> Iterable[Finding]:
        return ()


class SuppressionHygiene(Rule):
    """REP000: the linter's own meta-rule for malformed suppressions."""

    code = "REP000"
    name = "suppression-hygiene"
    summary = "suppression comments must name known codes and carry a reason"
    explanation = (
        "Every `# repro: allow[REPnnn]` comment must name an existing rule "
        "code and end with `-- <reason>` explaining why the finding is safe "
        "to ignore at this site.  A suppression without a reason (or with a "
        "malformed code) is itself a finding: silent exemptions are exactly "
        "the review-only convention this linter exists to replace.  REP000 "
        "findings cannot be suppressed — fix the comment instead."
    )

    def check_module(
        self, module: ModuleContext, manifest: InvariantManifest
    ) -> Iterable[Finding]:
        return list(module.bad_suppressions)


_REGISTRY: dict[str, type[Rule]] = {}


def register(rule_class: type[Rule]) -> type[Rule]:
    """Class decorator adding a rule to the global registry (keyed by code)."""
    existing = _REGISTRY.get(rule_class.code)
    if existing is not None and existing is not rule_class:
        raise AnalysisError(
            f"duplicate rule code {rule_class.code!r}: "
            f"{existing.__name__} and {rule_class.__name__}"
        )
    _REGISTRY[rule_class.code] = rule_class
    return rule_class


register(SuppressionHygiene)


def all_rules() -> list[Rule]:
    """Fresh instances of every registered rule, sorted by code."""
    import repro.analysis.rules  # noqa: F401  (registers the REP0xx rules)

    return [_REGISTRY[code]() for code in sorted(_REGISTRY)]


def rule_by_code(code: str) -> Rule:
    import repro.analysis.rules  # noqa: F401

    normalized = code.upper()
    rule_class = _REGISTRY.get(normalized)
    if rule_class is None:
        raise AnalysisError(
            f"unknown rule code {code!r}; known: {', '.join(sorted(_REGISTRY))}"
        )
    return rule_class()


@dataclass
class AnalysisReport:
    """The outcome of one analyzer run over a path set."""

    findings: list[Finding] = field(default_factory=list)
    analyzed_files: int = 0

    @property
    def new_findings(self) -> list[Finding]:
        return [finding for finding in self.findings if finding.is_new]

    @property
    def suppressed_findings(self) -> list[Finding]:
        return [finding for finding in self.findings if finding.suppressed]

    @property
    def exit_code(self) -> int:
        return 1 if self.new_findings else 0


def iter_python_files(root: Path, paths: Sequence[str]) -> Iterator[Path]:
    """Yield the ``.py`` files under each path (sorted, ``__pycache__`` skipped)."""
    seen: set[Path] = set()
    for raw in paths:
        target = (root / raw).resolve() if not Path(raw).is_absolute() else Path(raw)
        if not target.exists():
            raise AnalysisError(f"no such path: {raw}")
        if target.is_file():
            candidates: Iterable[Path] = [target] if target.suffix == ".py" else []
        else:
            candidates = sorted(target.rglob("*.py"))
        for candidate in candidates:
            if "__pycache__" in candidate.parts or candidate in seen:
                continue
            seen.add(candidate)
            yield candidate


def analyze_paths(
    paths: Sequence[str],
    root: Path | str | None = None,
    manifest: InvariantManifest | None = None,
    rules: Sequence[Rule] | None = None,
    select: Sequence[str] | None = None,
) -> AnalysisReport:
    """Run the rule set over every Python file under ``paths``.

    Findings come back sorted by location with suppressions already applied.
    """
    resolved_root = Path(root).resolve() if root is not None else Path.cwd()
    active_manifest = manifest if manifest is not None else InvariantManifest.load()
    active_rules = list(rules) if rules is not None else all_rules()
    if select:
        wanted = {code.upper() for code in select}
        unknown = wanted - {rule.code for rule in active_rules}
        if unknown:
            raise AnalysisError(f"--select names unknown rule(s): {sorted(unknown)}")
        # REP000 (suppression hygiene) always runs: a malformed suppression
        # must surface no matter which rules were selected.
        active_rules = [
            rule
            for rule in active_rules
            if rule.code in wanted or rule.code == "REP000"
        ]

    modules: list[ModuleContext] = []
    findings: list[Finding] = []
    for path in iter_python_files(resolved_root, paths):
        try:
            source = path.read_text()
        except (OSError, UnicodeDecodeError) as error:
            raise AnalysisError(f"cannot read {path}: {error}") from error
        try:
            module = ModuleContext(resolved_root, path, source)
        except SyntaxError as error:
            findings.append(
                Finding(
                    code="REP000",
                    message=f"file does not parse: {error.msg}",
                    path=path.relative_to(resolved_root).as_posix(),
                    line=error.lineno or 1,
                    column=error.offset or 0,
                )
            )
            continue
        modules.append(module)
        for rule in active_rules:
            if rule.applies_to(module):
                findings.extend(rule.check_module(module, active_manifest))

    project = Project(resolved_root, modules, active_manifest)
    for rule in active_rules:
        findings.extend(rule.finalize(project))

    resolved: list[Finding] = []
    for finding in findings:
        module = project.module(finding.path)
        suppression = (
            module.suppression_for(finding)
            if module is not None and finding.code != "REP000"
            else None
        )
        if suppression is not None:
            finding = replace(
                finding, suppressed=True, suppression_reason=suppression.reason
            )
        resolved.append(finding)
    resolved.sort(key=lambda f: (f.path, f.line, f.column, f.code, f.message))
    return AnalysisReport(findings=resolved, analyzed_files=len(modules))
