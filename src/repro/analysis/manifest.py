"""The invariant manifest: the data half of the project-specific rules.

The REP0xx rules are generic checkers; what counts as a *sanctioned*
mutation site, a *hot* module, a *declared* kernel/fallback pair or an
*allow-listed* defensive handler is project knowledge.  That knowledge lives
in one committed TOML file (``invariants.toml`` next to this module) so the
catalogue is reviewable data, not code — adding a kernel means adding a
manifest entry, and REP003 fails when the entry goes stale.

All path references in the manifest are root-relative POSIX paths, with
symbols attached as ``path/to/file.py::Qualified.name``.
"""

from __future__ import annotations

import tomllib
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Mapping

from repro.exceptions import AnalysisError

#: The manifest shipped with (and describing) this repository.
DEFAULT_MANIFEST_PATH = Path(__file__).with_name("invariants.toml")


@dataclass(frozen=True)
class ParityPair:
    """One REP003 declaration: a vectorized kernel and its scalar reference."""

    kernel: str
    fallback: str
    note: str = ""


@dataclass(frozen=True)
class WorkerCall:
    """One REP006 declaration: a callable that ships a worker to a pool.

    ``arg`` is the positional index of the worker argument.  ``process_only``
    marks callables that always pickle the worker (``pool.map``); for the
    others (``run_many``, ``fan_out_shared``) a lambda is only unsafe when
    the call's ``Execution`` argument — the one after the worker, or the
    ``execution=`` keyword — can select process mode.
    """

    arg: int
    process_only: bool = True


@dataclass(frozen=True)
class InvariantManifest:
    """Typed view of ``invariants.toml`` (every section optional)."""

    #: REP001: names of helper callables that encapsulate close+unlink.
    cleanup_helpers: tuple[str, ...] = ()
    #: REP002: dataset-state attribute names whose mutation must invalidate
    #: the columnar cache, the Record mutator method names, and the modules
    #: allowed to touch either.
    protected_attributes: tuple[str, ...] = ()
    record_mutators: tuple[str, ...] = ()
    sanctioned_modules: tuple[str, ...] = ()
    #: REP003: modules whose public module-level functions must all appear as
    #: kernels in ``parity_pairs``.
    kernel_modules: tuple[str, ...] = ()
    parity_pairs: tuple[ParityPair, ...] = ()
    #: REP004: modules declared hot (no per-record Python loops) and the
    #: qualified functions exempted as scalar fallbacks.
    hot_modules: tuple[str, ...] = ()
    scalar_fallbacks: tuple[str, ...] = ()
    #: REP005: path prefixes the exception discipline applies to, plus
    #: ``path::qualname`` sites allow-listed as defensive cleanup.
    exception_scope: tuple[str, ...] = ()
    allowed_handlers: tuple[str, ...] = ()
    #: REP006: classes shipped through the worker pool, field types they must
    #: not carry, and worker-accepting callables checked for lambdas.
    spec_classes: tuple[str, ...] = ()
    forbidden_field_types: tuple[str, ...] = ()
    #: ``callable name -> worker-argument declaration`` for REP006.
    worker_calls: Mapping[str, WorkerCall] = field(default_factory=dict)
    #: REP007: path prefixes the retry discipline applies to, the call names
    #: that count as (re)submission, and the ``path::qualname`` helpers whose
    #: policy-bounded sleeps are sanctioned.
    retry_scope: tuple[str, ...] = ()
    resubmit_calls: tuple[str, ...] = ()
    sleep_helpers: tuple[str, ...] = ()
    #: REP008: path prefixes the durability discipline applies to, plus the
    #: ``path::qualname`` helpers sanctioned to perform raw writes (the
    #: atomic write-temp-fsync-rename implementation itself).
    durability_scope: tuple[str, ...] = ()
    atomic_helpers: tuple[str, ...] = ()

    @classmethod
    def load(cls, path: Path | str | None = None) -> "InvariantManifest":
        """Load a manifest file (default: the repository's own)."""
        manifest_path = Path(path) if path is not None else DEFAULT_MANIFEST_PATH
        try:
            raw = tomllib.loads(manifest_path.read_text())
        except OSError as error:
            raise AnalysisError(
                f"cannot read invariant manifest {manifest_path}: {error}"
            ) from error
        except tomllib.TOMLDecodeError as error:
            raise AnalysisError(
                f"invariant manifest {manifest_path} is not valid TOML: {error}"
            ) from error
        return cls.from_mapping(raw, source=str(manifest_path))

    @classmethod
    def from_mapping(
        cls, raw: Mapping[str, Any], source: str = "<mapping>"
    ) -> "InvariantManifest":
        def strings(section: str, key: str) -> tuple[str, ...]:
            values = raw.get(section, {}).get(key, ())
            if not all(isinstance(value, str) for value in values):
                raise AnalysisError(
                    f"{source}: [{section}] {key} must be a list of strings"
                )
            return tuple(values)

        pairs: list[ParityPair] = []
        for entry in raw.get("rep003", {}).get("pairs", ()):
            kernel = entry.get("kernel")
            fallback = entry.get("fallback")
            if not kernel or not fallback:
                raise AnalysisError(
                    f"{source}: every [[rep003.pairs]] entry needs a "
                    f"'kernel' and a 'fallback' reference"
                )
            pairs.append(
                ParityPair(
                    kernel=kernel, fallback=fallback, note=entry.get("note", "")
                )
            )

        worker_calls_raw = raw.get("rep006", {}).get("worker_calls", {})
        worker_calls: dict[str, WorkerCall] = {}
        for name, entry in worker_calls_raw.items():
            if not isinstance(entry, Mapping) or not isinstance(
                entry.get("arg"), int
            ) or entry["arg"] < 0:
                raise AnalysisError(
                    f"{source}: [rep006] worker_calls[{name!r}] must be a "
                    f"table with a non-negative 'arg' index"
                )
            worker_calls[name] = WorkerCall(
                arg=entry["arg"],
                process_only=bool(entry.get("process_only", True)),
            )

        return cls(
            cleanup_helpers=strings("rep001", "cleanup_helpers"),
            protected_attributes=strings("rep002", "protected_attributes"),
            record_mutators=strings("rep002", "record_mutators"),
            sanctioned_modules=strings("rep002", "sanctioned_modules"),
            kernel_modules=strings("rep003", "kernel_modules"),
            parity_pairs=tuple(pairs),
            hot_modules=strings("rep004", "hot_modules"),
            scalar_fallbacks=strings("rep004", "scalar_fallbacks"),
            exception_scope=strings("rep005", "scope"),
            allowed_handlers=strings("rep005", "allowed_handlers"),
            spec_classes=strings("rep006", "spec_classes"),
            forbidden_field_types=strings("rep006", "forbidden_field_types"),
            worker_calls=worker_calls,
            retry_scope=strings("rep007", "scope"),
            resubmit_calls=strings("rep007", "resubmit_calls"),
            sleep_helpers=strings("rep007", "sleep_helpers"),
            durability_scope=strings("rep008", "scope"),
            atomic_helpers=strings("rep008", "atomic_helpers"),
        )
