"""REP008 — durability discipline in the checkpoint store.

The checkpoint store's whole value is that a record on disk is either a
complete, checksummed frame or detectably absent — a guarantee that lives or
dies with *how the bytes get written*.  A casual ``open(path, "w")`` or
``Path.write_bytes`` in the store's code path can tear on a crash: the file
exists, holds half a frame, and every future load pays a corruption warning
(or, without the checksum, would silently serve garbage).  The discipline is
therefore structural: inside the ``[rep008] scope`` prefixes, every write
must flow through the manifest's ``atomic_helpers`` — the one sanctioned
implementation of write-to-temp → flush → ``fsync`` → atomic rename →
directory ``fsync``.

Inside the scope this rule flags:

* **writable ``open``/``os.fdopen`` calls** — any call whose mode string
  contains ``w``, ``a``, ``x`` or ``+`` (a mode that is not a string
  constant is flagged too: if the mode cannot be proven read-only, the
  write cannot be proven atomic);
* **``Path.write_bytes`` / ``Path.write_text`` calls** — the convenience
  writers that truncate in place.

The body of an ``atomic_helpers`` entry itself is exempt — it is the place
where the raw ``open`` is supposed to live.  A deliberate raw write
elsewhere (none is expected) would carry a reasoned
``# repro: allow[REP008]``.
"""

from __future__ import annotations

import ast
from typing import Iterable

from repro.analysis.core import Finding, ModuleContext, Rule, register
from repro.analysis.manifest import InvariantManifest

#: ``open``-style callables whose mode argument decides writability, mapped
#: to the positional index of that mode argument.
_OPEN_CALLS = {"open": 1, "fdopen": 1}

#: ``Path`` convenience writers that truncate the target in place.
_PATH_WRITERS = frozenset({"write_bytes", "write_text"})

_WRITE_MODE_CHARS = frozenset("wax+")


def _call_name(node: ast.Call) -> str | None:
    """The terminal name of a call: ``os.fdopen(...)`` -> ``fdopen``."""
    func = node.func
    if isinstance(func, ast.Attribute):
        return func.attr
    if isinstance(func, ast.Name):
        return func.id
    return None


def _mode_argument(node: ast.Call, position: int) -> ast.expr | None:
    """The mode argument of an ``open``-style call, positional or keyword."""
    for keyword in node.keywords:
        if keyword.arg == "mode":
            return keyword.value
    if len(node.args) > position:
        return node.args[position]
    return None


def _writes(mode: ast.expr | None) -> bool:
    """Whether the mode argument opens for writing.

    A missing mode is read-only (``"r"`` is the default).  A non-constant
    mode cannot be proven read-only, so it counts as a write — the store's
    durability must not hinge on runtime string values.
    """
    if mode is None:
        return False
    if isinstance(mode, ast.Constant) and isinstance(mode.value, str):
        return bool(_WRITE_MODE_CHARS & set(mode.value))
    return True


@register
class DurabilityDiscipline(Rule):
    code = "REP008"
    name = "durability-discipline"
    summary = (
        "checkpoint-store writes must use the atomic write helper; "
        "no bare open(..., 'w') or Path.write_bytes in the store"
    )
    explanation = (
        "Inside the [rep008] scope, every file write must flow through the "
        "manifest's atomic_helpers (the write-temp → fsync → os.replace "
        "implementation): a bare open(path, 'w')/os.fdopen(fd, 'w') or "
        "Path.write_bytes/write_text truncates in place, so a crash "
        "mid-write leaves a torn record that every future load reports as "
        "corruption — or, without the checksummed frame, would silently misread. "
        "The helper's own body is exempt (it is where the raw open "
        "belongs); a mode that is not a string constant is flagged because "
        "it cannot be proven read-only.  A deliberate raw write elsewhere "
        "carries a reasoned `# repro: allow[REP008]`."
    )

    def check_module(
        self, module: ModuleContext, manifest: InvariantManifest
    ) -> Iterable[Finding]:
        scope = manifest.durability_scope
        if scope and not module.relpath.startswith(tuple(scope)):
            return
        helpers = frozenset(manifest.atomic_helpers)
        for node in module.walk():
            if not isinstance(node, ast.Call):
                continue
            name = _call_name(node)
            if name is None:
                continue
            site = f"{module.relpath}::{module.qualname(node)}"
            if site in helpers:
                continue
            if name in _OPEN_CALLS and _writes(
                _mode_argument(node, _OPEN_CALLS[name])
            ):
                yield module.finding(
                    self,
                    node,
                    f"writable {name}() in checkpoint-store code; route the "
                    f"write through the atomic helper "
                    f"(checkpoint.atomic_write_bytes) so a crash cannot "
                    f"tear the record",
                )
            elif name in _PATH_WRITERS and isinstance(node.func, ast.Attribute):
                yield module.finding(
                    self,
                    node,
                    f".{name}() truncates in place; route the write through "
                    f"the atomic helper (checkpoint.atomic_write_bytes) so "
                    f"a crash cannot tear the record",
                )
