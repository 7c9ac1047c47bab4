"""Project-wide module import graph and call graph.

The file-local rules of :mod:`repro.analysis.rules` see one module at a
time; REP006's worker resolution needs to know *who calls whom* across the
whole analyzed path set.  This module builds that picture from nothing but
the parsed ASTs:

* a **module graph** — every analyzed module keyed by root-relative path,
  with its import edges resolved back to analyzed modules where possible;
* a **symbol table** per module — top-level functions, classes, methods and
  nested functions, plus the import aliases visible at module scope;
* a **call graph** — one :class:`FunctionInfo` node per function/method
  (identified as ``path.py::Qualified.name``, the same reference syntax the
  invariant manifest uses) and one :class:`CallSite` per ``ast.Call``,
  with the callee resolved through local scopes, module-level definitions,
  ``self``/``cls`` method dispatch and import aliases.

Resolution is deliberately conservative: a call that cannot be traced to a
project symbol stays *unresolved* (``callee=None``) and rules treat it as
an opaque external call.  Dynamic dispatch through arbitrary objects is out
of scope — the rules that consume the graph are designed so that an
unresolved call never produces a finding by itself.

The graph is built lazily, once per analysis run, via
:meth:`repro.analysis.core.Project.graph`.
"""

from __future__ import annotations

import ast
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Iterator

if TYPE_CHECKING:  # pragma: no cover - import cycle guard (core ↔ graph)
    from repro.analysis.core import ModuleContext, Project


def module_names(relpath: str) -> tuple[str, ...]:
    """Dotted import names a root-relative path may be imported as.

    ``src/repro/columnar/shared.py`` is importable as
    ``repro.columnar.shared`` (the ``src`` layout) and, defensively, as the
    full path-derived name; package ``__init__.py`` files take the package's
    own name.
    """
    parts = list(relpath.split("/"))
    if not parts[-1].endswith(".py"):
        return ()
    parts[-1] = parts[-1][: -len(".py")]
    if parts[-1] == "__init__":
        parts.pop()
    if not parts:
        return ()
    names = [".".join(parts)]
    if len(parts) > 1:
        names.append(".".join(parts[1:]))  # strip the src/-style root dir
    return tuple(names)


@dataclass(frozen=True)
class FunctionInfo:
    """One function or method node of the call graph."""

    id: str  # "path/to/file.py::Qualified.name"
    module: str  # root-relative path of the defining module
    qualname: str
    node: ast.FunctionDef | ast.AsyncFunctionDef
    #: Positional-or-keyword parameter names, in order (``self``/``cls``
    #: included for methods so argument indices line up with call sites).
    params: tuple[str, ...]
    #: Qualified name of the enclosing class ("" for plain functions).
    owner_class: str = ""
    #: True when the def is nested inside another function (not picklable
    #: under spawn, invisible at module import time).
    nested: bool = False


@dataclass(frozen=True)
class CallSite:
    """One ``ast.Call`` inside a function (or at module level)."""

    caller: str  # FunctionInfo id, or "path.py::" for module-level code
    module: str
    call: ast.Call
    #: Syntactic callee name: the last dotted component ("close" for
    #: ``seg.close()``, "SharedMemory" for ``shared_memory.SharedMemory()``).
    name: str
    #: Resolved project callee (FunctionInfo id), or None.
    callee: str | None
    #: Resolved class id when the call constructs a project class.
    constructs: str | None = None


@dataclass
class _ModuleTable:
    """Import aliases and top-level symbols of one module."""

    relpath: str
    #: import alias -> dotted module name (``import a.b as c`` => c -> a.b;
    #: ``import a.b`` => a -> a).
    module_aliases: dict[str, str] = field(default_factory=dict)
    #: local name -> (dotted module, symbol) for ``from mod import sym``.
    symbol_imports: dict[str, tuple[str, str]] = field(default_factory=dict)
    #: top-level (and nested) function/class qualnames defined here.
    functions: set[str] = field(default_factory=set)
    classes: set[str] = field(default_factory=set)


class ProjectGraph:
    """Module import graph + call graph over one analyzed :class:`Project`."""

    def __init__(self) -> None:
        self.functions: dict[str, FunctionInfo] = {}
        #: caller id -> call sites lexically inside that function.
        self._sites: dict[str, list[CallSite]] = {}
        #: caller id -> resolved callee ids.
        self.callees: dict[str, set[str]] = {}
        #: callee id -> caller ids.
        self.callers: dict[str, set[str]] = {}
        #: module relpath -> imported module relpaths (project-internal only).
        self.module_imports: dict[str, set[str]] = {}
        self._tables: dict[str, _ModuleTable] = {}
        self._by_dotted: dict[str, str] = {}
        self._modules: dict[str, "ModuleContext"] = {}

    # -- construction ---------------------------------------------------------
    @classmethod
    def build(cls, project: "Project") -> "ProjectGraph":
        graph = cls()
        for module in project.modules:
            graph._modules[module.relpath] = module
            for dotted in module_names(module.relpath):
                graph._by_dotted.setdefault(dotted, module.relpath)
        for module in project.modules:
            graph._collect(module)
        for module in project.modules:
            graph._link_calls(module)
        return graph

    def _collect(self, module: "ModuleContext") -> None:
        table = _ModuleTable(relpath=module.relpath)
        self._tables[module.relpath] = table
        imported: set[str] = set()
        package = self._package_of(module.relpath)
        for node in module.walk():
            if isinstance(node, ast.Import):
                for alias in node.names:
                    bound = alias.asname or alias.name.split(".")[0]
                    table.module_aliases[bound] = (
                        alias.name if alias.asname else alias.name.split(".")[0]
                    )
                    self._note_import(imported, alias.name)
            elif isinstance(node, ast.ImportFrom):
                dotted = self._absolute_from(node, package)
                if dotted is None:
                    continue
                self._note_import(imported, dotted)
                for alias in node.names:
                    if alias.name == "*":
                        continue
                    bound = alias.asname or alias.name
                    # ``from a import b`` may bind a submodule or a symbol;
                    # record both interpretations and let resolution pick.
                    table.symbol_imports[bound] = (dotted, alias.name)
                    if f"{dotted}.{alias.name}" in self._by_dotted:
                        table.module_aliases[bound] = f"{dotted}.{alias.name}"
            elif isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                qualname = module.qualname(node)
                table.functions.add(qualname)
                owner = self._owner_class(module, node)
                enclosing = module.enclosing_function(node)
                params = tuple(
                    arg.arg
                    for arg in (*node.args.posonlyargs, *node.args.args)
                )
                info = FunctionInfo(
                    id=f"{module.relpath}::{qualname}",
                    module=module.relpath,
                    qualname=qualname,
                    node=node,
                    params=params,
                    owner_class=owner,
                    nested=enclosing is not None,
                )
                self.functions[info.id] = info
            elif isinstance(node, ast.ClassDef):
                qualname = module.qualname(node)
                table.classes.add(qualname)
        self.module_imports[module.relpath] = imported

    def _note_import(self, imported: set[str], dotted: str) -> None:
        target = self._by_dotted.get(dotted)
        if target is not None:
            imported.add(target)

    def _package_of(self, relpath: str) -> str:
        names = module_names(relpath)
        if not names:
            return ""
        dotted = names[0]
        if relpath.endswith("__init__.py"):
            return dotted
        return dotted.rpartition(".")[0]

    def _absolute_from(self, node: ast.ImportFrom, package: str) -> str | None:
        if node.level == 0:
            return node.module
        base_parts = package.split(".") if package else []
        # level=1 is the current package; each further level pops one.
        drop = node.level - 1
        if drop > len(base_parts):
            return None
        kept = base_parts[: len(base_parts) - drop] if drop else base_parts
        if node.module:
            kept = [*kept, *node.module.split(".")]
        return ".".join(kept) if kept else None

    def _owner_class(self, module: "ModuleContext", node: ast.AST) -> str:
        for ancestor in module.ancestors(node):
            if isinstance(ancestor, ast.ClassDef):
                return module.qualname(ancestor)
            if isinstance(ancestor, (ast.FunctionDef, ast.AsyncFunctionDef)):
                return ""
        return ""

    # -- call linking ---------------------------------------------------------
    def _link_calls(self, module: "ModuleContext") -> None:
        for node in module.walk():
            if not isinstance(node, ast.Call):
                continue
            enclosing = module.enclosing_function(node)
            caller = (
                f"{module.relpath}::{module.qualname(enclosing)}"
                if enclosing is not None
                else f"{module.relpath}::"
            )
            name = call_name(node)
            callee, constructs = self.resolve_call(module.relpath, caller, node)
            site = CallSite(
                caller=caller,
                module=module.relpath,
                call=node,
                name=name,
                callee=callee,
                constructs=constructs,
            )
            self._sites.setdefault(caller, []).append(site)
            if callee is not None:
                self.callees.setdefault(caller, set()).add(callee)
                self.callers.setdefault(callee, set()).add(caller)

    def resolve_call(
        self, relpath: str, caller: str, call: ast.Call
    ) -> tuple[str | None, str | None]:
        """Resolve one call to a (function id, constructed class id) pair."""
        func = call.func
        if isinstance(func, ast.Name):
            return self._resolve_symbol(relpath, caller, func.id)
        if isinstance(func, ast.Attribute):
            receiver = func.value
            if isinstance(receiver, ast.Name) and receiver.id in ("self", "cls"):
                owner = self._caller_class(caller)
                if owner:
                    return self._resolve_method(relpath, owner, func.attr)
                return None, None
            dotted = _dotted_chain(receiver)
            if dotted is not None:
                target = self._module_for_chain(relpath, dotted)
                if target is not None:
                    return self._resolve_in_module(target, func.attr)
        return None, None

    def resolve_name(
        self, relpath: str, caller: str, name: str
    ) -> tuple[str | None, str | None]:
        """Resolve a bare name reference (not necessarily a call)."""
        return self._resolve_symbol(relpath, caller, name)

    def _caller_class(self, caller: str) -> str:
        relpath, _, qualname = caller.partition("::")
        info = self.functions.get(caller)
        if info is not None:
            return info.owner_class
        # Module-level "caller" or unknown scope: derive from the qualname.
        return qualname.rpartition(".")[0]

    def _resolve_symbol(
        self, relpath: str, caller: str, name: str
    ) -> tuple[str | None, str | None]:
        table = self._tables.get(relpath)
        if table is None:
            return None, None
        # Nested definitions visible from the caller's scope, innermost out.
        _, _, scope = caller.partition("::")
        while scope:
            candidate = f"{scope}.{name}"
            if candidate in table.functions:
                return f"{relpath}::{candidate}", None
            if candidate in table.classes:
                return self._class_result(relpath, candidate)
            scope = scope.rpartition(".")[0]
        if name in table.functions:
            return f"{relpath}::{name}", None
        if name in table.classes:
            return self._class_result(relpath, name)
        imported = table.symbol_imports.get(name)
        if imported is not None:
            target = self._by_dotted.get(imported[0])
            if target is not None:
                return self._resolve_in_module(target, imported[1])
        return None, None

    def _class_result(
        self, relpath: str, qualname: str
    ) -> tuple[str | None, str | None]:
        class_id = f"{relpath}::{qualname}"
        init_id = f"{relpath}::{qualname}.__init__"
        return (init_id if init_id in self.functions else None), class_id

    def _resolve_method(
        self, relpath: str, owner: str, attr: str
    ) -> tuple[str | None, str | None]:
        candidate = f"{relpath}::{owner}.{attr}"
        if candidate in self.functions:
            return candidate, None
        return None, None

    def _resolve_in_module(
        self, relpath: str, symbol: str
    ) -> tuple[str | None, str | None]:
        table = self._tables.get(relpath)
        if table is None:
            return None, None
        if symbol in table.functions:
            return f"{relpath}::{symbol}", None
        if symbol in table.classes:
            return self._class_result(relpath, symbol)
        # Re-exported symbol (``from x import y`` in the target module).
        forwarded = table.symbol_imports.get(symbol)
        if forwarded is not None:
            target = self._by_dotted.get(forwarded[0])
            if target is not None and target != relpath:
                return self._resolve_in_module(target, forwarded[1])
        return None, None

    def _module_for_chain(self, relpath: str, dotted: str) -> str | None:
        table = self._tables.get(relpath)
        if table is None:
            return None
        head, _, rest = dotted.partition(".")
        alias = table.module_aliases.get(head)
        if alias is None:
            return None
        full = f"{alias}.{rest}" if rest else alias
        # Longest-prefix match: "shared_memory.SharedMemory" resolves the
        # module "multiprocessing.shared_memory" (external -> None).
        while full:
            target = self._by_dotted.get(full)
            if target is not None:
                return target
            if "." not in full:
                return None
            full = full.rpartition(".")[0]
        return None

    # -- queries --------------------------------------------------------------
    def call_sites(self, caller: str) -> list[CallSite]:
        return self._sites.get(caller, [])

    def all_call_sites(self) -> Iterator[CallSite]:
        for sites in self._sites.values():
            yield from sites

    def function(self, fid: str) -> FunctionInfo | None:
        return self.functions.get(fid)

    def callers_of(self, fid: str) -> frozenset[str]:
        return frozenset(self.callers.get(fid, ()))

    def methods_of(self, class_id: str) -> Iterator[FunctionInfo]:
        relpath, _, qualname = class_id.partition("::")
        prefix = f"{relpath}::{qualname}."
        for fid, info in self.functions.items():
            if fid.startswith(prefix) and "." not in fid[len(prefix) :]:
                yield info

    @property
    def edge_count(self) -> int:
        return sum(len(targets) for targets in self.callees.values())

    def stats(self) -> dict[str, int]:
        """Size of the graph (benchmark + reporting payload)."""
        resolved = sum(
            1 for site in self.all_call_sites() if site.callee is not None
        )
        total = sum(len(sites) for sites in self._sites.values())
        return {
            "modules": len(self._modules),
            "import_edges": sum(
                len(edges) for edges in self.module_imports.values()
            ),
            "functions": len(self.functions),
            "call_sites": total,
            "resolved_call_sites": resolved,
            "call_edges": self.edge_count,
        }


def call_name(call: ast.Call) -> str:
    """The last dotted component of a call's callee expression."""
    func = call.func
    if isinstance(func, ast.Name):
        return func.id
    if isinstance(func, ast.Attribute):
        return func.attr
    return ""


def _dotted_chain(node: ast.expr) -> str | None:
    """Flatten ``a.b.c`` into ``"a.b.c"`` (None for non-name chains)."""
    parts: list[str] = []
    current: ast.expr = node
    while isinstance(current, ast.Attribute):
        parts.append(current.attr)
        current = current.value
    if not isinstance(current, ast.Name):
        return None
    parts.append(current.id)
    return ".".join(reversed(parts))
