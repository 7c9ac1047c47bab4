"""Durable checkpointing of experiment task DAGs: content-addressed resume.

The resilience engine makes a single run fault tolerant; this module makes a
*sweep* durable.  An interrupted
:class:`~repro.engine.comparator.VaryingParameterExperiment` or
:class:`~repro.engine.comparator.MethodComparator` would lose every completed
cell to a SIGKILL, OOM or power loss; instead each completed (configuration,
value) cell is persisted in a :class:`CheckpointStore` — the one granularity
both checkpoint at — and a re-run recomputes only what is missing.  The hard
part is doing this *robustly*, and the design leans on three classic
durability disciplines:

* **content-addressed keys** — a cell's key is a :func:`stable_digest` of
  everything that determines its value: the dataset's content fingerprint
  (:meth:`~repro.datasets.dataset.Dataset.fingerprint`), the
  hierarchies/policies/workload, the configuration, the sweep coordinates
  and a key-schema version.  Any input change changes the key, so a stale
  cell can never be served — it is simply never looked up again.  The
  digest canonicalises hash-randomised containers (``set``/``frozenset``/
  ``dict``) so keys are identical across processes and Python invocations
  regardless of ``PYTHONHASHSEED``.
* **atomic, checksummed records** — cells are written by
  :func:`atomic_write_bytes` (write to a temp file in the same directory,
  flush, ``fsync``, ``os.replace``, directory ``fsync``) and framed with a
  magic + version + checksum + length header (:func:`encode_frame`).  A torn,
  truncated or bit-rotted record fails the frame checks on load and is
  treated as *missing*: the task recomputes and the corruption is reported
  as a structured warning on the :class:`~repro.engine.resilience.RunReport`
  — never a crash, never a silently wrong result.
* **a store format version** — the store directory carries a ``FORMAT``
  header file; a store written by an incompatible layout is rebuilt (its
  cells dropped) rather than misread.

Execution threads through :func:`run_checkpointed`, which
:func:`~repro.engine.runner.run_many` delegates to when its
:class:`~repro.engine.runner.Execution` carries a store:
hits are served from disk (and re-validated by the policy's result
validator when one exists), misses run through the ordinary resilient
engine wrapped in a :class:`_StoringWorker` that persists every result the
moment it exists — so a crash one task later costs one task, not the sweep.

See ``docs/robustness.md`` ("Checkpoint & resume") for the store layout and
the corruption semantics.
"""

from __future__ import annotations

import dataclasses
import hashlib
import os
import pickle
import struct
import tempfile
import threading
import time
import weakref
from dataclasses import dataclass
from pathlib import Path
from typing import TYPE_CHECKING, Any, Callable, Iterable, Iterator, Sequence

import numpy as np

from repro.datasets.dataset import Dataset
from repro.exceptions import CheckpointError
from repro.hierarchy.hierarchy import Hierarchy
from repro.policies.privacy import PrivacyPolicy
from repro.policies.utility import UtilityPolicy
from repro.queries.workload import QueryWorkload

if TYPE_CHECKING:  # pragma: no cover - import cycle guards
    from repro.engine.config import AnonymizationConfig
    from repro.engine.experiment import ParameterSweep
    from repro.engine.resilience import RunReport
    from repro.engine.resources import ExperimentResources
    from repro.engine.runner import Execution

# ---------------------------------------------------------------------------
# Durable writes.


def atomic_write_bytes(path: Path | str, data: bytes) -> None:
    """Write ``data`` to ``path`` durably: temp file → fsync → atomic rename.

    The temp file lives in the target directory so the ``os.replace`` is a
    same-filesystem atomic rename; the directory itself is fsynced afterwards
    so the rename survives a power loss.  Readers therefore see either the
    old content or the new content, never a torn mixture — which is exactly
    the property the REP008 lint rule pins on every store write.
    """
    target = Path(path)
    directory = target.parent
    directory.mkdir(parents=True, exist_ok=True)
    fd, tmp_name = tempfile.mkstemp(
        prefix=target.name + ".", suffix=".tmp", dir=directory
    )
    try:
        with os.fdopen(fd, "wb") as handle:
            handle.write(data)
            handle.flush()
            os.fsync(handle.fileno())
        os.replace(tmp_name, target)
    except BaseException:
        _unlink_quietly(tmp_name)
        raise
    _fsync_directory(directory)


def _unlink_quietly(path: str) -> None:
    """Best-effort temp-file removal on a failed write (never raises)."""
    try:
        os.unlink(path)
    except OSError:  # pragma: no cover - cleanup of an already-failed write
        pass


def _fsync_directory(directory: Path) -> None:
    """Flush a directory entry to disk where the platform supports it."""
    flag = getattr(os, "O_DIRECTORY", None)
    if flag is None:  # pragma: no cover - non-POSIX platforms
        return
    try:
        fd = os.open(directory, os.O_RDONLY | flag)
    except OSError:  # pragma: no cover - e.g. permissions; rename still holds
        return
    try:
        os.fsync(fd)
    except OSError:  # pragma: no cover - fsync unsupported on directory fds
        pass
    finally:
        os.close(fd)


# ---------------------------------------------------------------------------
# Record framing: magic + version + checksum + length, then the payload.

_MAGIC = b"RPCK"

#: Bump when the frame layout or the cell payload encoding changes
#: incompatibly; stores written under another version are rebuilt.
#: Version 3: datasets inside cells pickle as columns, not rows.
FORMAT_VERSION = 3

_HEADER = struct.Struct("<4sIIQ")  # magic, format version, checksum, length


def _payload_check(payload: bytes) -> int:
    """The frame's integrity check: a 4-byte BLAKE2b digest of the payload.

    BLAKE2b runs at C speed (>700 MiB/s) over the multi-megabyte pickled
    cells, which keeps the cold-run overhead inside the benchmark's 5%
    budget (``benchmarks/bench_resume.py``); any payload change flips the
    digest, so a damaged record passes with probability 2**-32.
    """
    return int.from_bytes(hashlib.blake2b(payload, digest_size=4).digest(), "little")


def encode_frame(payload: bytes) -> bytes:
    """Frame ``payload`` with the magic/version/checksum/length header."""
    return (
        _HEADER.pack(_MAGIC, FORMAT_VERSION, _payload_check(payload), len(payload))
        + payload
    )


def decode_frame(blob: bytes) -> bytes:
    """The payload of a framed record; :class:`CheckpointError` on any damage.

    Every failure mode maps to one message: a record too short to hold the
    header (torn write), a wrong magic (not a checkpoint record), a wrong
    version (stale format), a length mismatch (truncation or trailing
    garbage) and a checksum mismatch (bit rot).
    """
    if len(blob) < _HEADER.size:
        raise CheckpointError(
            f"record truncated: {len(blob)} bytes is shorter than the "
            f"{_HEADER.size}-byte frame header"
        )
    magic, version, checksum, length = _HEADER.unpack_from(blob)
    if magic != _MAGIC:
        raise CheckpointError(f"bad record magic {magic!r}")
    if version != FORMAT_VERSION:
        raise CheckpointError(
            f"record format version {version} does not match {FORMAT_VERSION}"
        )
    payload = blob[_HEADER.size :]
    if len(payload) != length:
        raise CheckpointError(
            f"record length mismatch: header says {length} bytes, "
            f"found {len(payload)}"
        )
    actual = _payload_check(payload)
    if actual != checksum:
        raise CheckpointError(
            f"record checksum mismatch: header says {checksum:#010x}, "
            f"payload hashes to {actual:#010x}"
        )
    return payload


# ---------------------------------------------------------------------------
# Stable content digests (the key half of content addressing).

#: Bump when the *meaning* of a key changes (new inputs folded in, different
#: resource semantics) so old cells are orphaned instead of wrongly reused.
#: Version 2: the attack-simulation flag joined the key inputs (PR 9).
KEY_SCHEMA_VERSION = 2

_SEPARATOR = b"\x1f"


def _tagged(tag: bytes, *chunks: bytes) -> Iterator[bytes]:
    yield tag
    for chunk in chunks:
        yield struct.pack("<Q", len(chunk))
        yield chunk


def _encoded(value: object) -> bytes:
    return b"".join(_encode(value))


def _encode(value: object) -> Iterator[bytes]:
    """Canonical byte encoding: equal values encode equally, across processes.

    ``pickle`` is *not* stable enough to key on — ``set``/``frozenset``
    iteration order (and therefore their pickles) depends on
    ``PYTHONHASHSEED`` — so this encoder sorts hash-randomised containers by
    their own encoded bytes and tags every value with its type, keeping
    ``25``, ``25.0`` and ``"25"`` apart.  Unknown types raise
    :class:`~repro.exceptions.CheckpointError` instead of hashing something
    unstable.
    """
    if value is None:
        yield b"N"
    elif isinstance(value, bool):
        yield b"B1" if value else b"B0"
    elif isinstance(value, int):
        yield from _tagged(b"I", str(value).encode())
    elif isinstance(value, float):
        yield b"F" + struct.pack(">d", value)
    elif isinstance(value, str):
        yield from _tagged(b"S", value.encode("utf-8"))
    elif isinstance(value, (bytes, bytearray)):
        yield from _tagged(b"Y", bytes(value))
    elif isinstance(value, np.generic):
        yield from _encode(value.item())
    elif isinstance(value, np.ndarray):
        yield from _tagged(
            b"A",
            value.dtype.str.encode(),
            repr(value.shape).encode(),
            np.ascontiguousarray(value).tobytes(),
        )
    elif isinstance(value, (list, tuple)):
        yield b"L(" if isinstance(value, list) else b"T("
        for element in value:
            yield from _encode(element)
        yield b")"
    elif isinstance(value, dict):
        yield b"D("
        for _, encoded_key, encoded_value in sorted(
            (_encoded(key), _encoded(key), _encoded(item))
            for key, item in value.items()
        ):
            yield encoded_key
            yield encoded_value
        yield b")"
    elif isinstance(value, (set, frozenset)):
        yield b"E("
        for encoded in sorted(_encoded(element) for element in value):
            yield encoded
        yield b")"
    elif isinstance(value, Dataset):
        yield from _tagged(b"DS", value.fingerprint().encode())
    elif isinstance(value, Hierarchy):
        yield _encoded_hierarchy(value)
    elif isinstance(value, PrivacyPolicy):
        yield from _tagged(b"PP")
        yield from _encode(
            (value.k, [constraint.items for constraint in value.constraints])
        )
    elif isinstance(value, UtilityPolicy):
        yield from _tagged(b"UP")
        yield from _encode([constraint.items for constraint in value.constraints])
    elif isinstance(value, QueryWorkload):
        yield _encoded_workload(value)
    elif dataclasses.is_dataclass(value) and not isinstance(value, type):
        yield from _tagged(
            b"C", f"{type(value).__module__}.{type(value).__qualname__}".encode()
        )
        for field in dataclasses.fields(value):
            yield from _tagged(b"f", field.name.encode())
            yield from _encode(getattr(value, field.name))
        yield b")"
    else:
        raise CheckpointError(
            f"cannot build a stable digest for {type(value).__module__}."
            f"{type(value).__qualname__}; teach repro.engine.checkpoint._encode "
            f"a canonical encoding before keying checkpoints on it"
        )


def _encode_hierarchy(hierarchy: Hierarchy) -> Iterator[bytes]:
    """A hierarchy as its sorted ``(label, parent, interval, children)`` map.

    Node identity, parentage, interval bounds and sibling order fully
    determine generalization behaviour; ``_nodes`` insertion order does not,
    so the map is sorted by label.
    """
    yield from _tagged(b"H", hierarchy.attribute.encode())
    entries = []
    for label in sorted(hierarchy.labels):
        node = hierarchy.node(label)
        entries.append(
            (
                label,
                node.parent.label if node.parent is not None else None,
                node.interval,
                tuple(child.label for child in node.children),
            )
        )
    yield from _encode(entries)


#: Hierarchies are frozen after construction (``Hierarchy.__init__`` indexes
#: the whole node tree and no mutator API exists), so their canonical
#: encoding can be memoised by object identity.  Key derivation encodes the
#: same hierarchies once per task otherwise — measurable against the
#: checkpoint overhead budget on large domains.
_HIERARCHY_ENCODINGS: "weakref.WeakKeyDictionary[Hierarchy, bytes]" = (
    weakref.WeakKeyDictionary()
)


def _encoded_hierarchy(hierarchy: Hierarchy) -> bytes:
    try:
        return _HIERARCHY_ENCODINGS[hierarchy]
    except KeyError:
        encoded = b"".join(_encode_hierarchy(hierarchy))
        _HIERARCHY_ENCODINGS[hierarchy] = encoded
        return encoded


#: Workloads can change (``QueryWorkload.add``/``remove``, a new ``name``),
#: so a memoised encoding is kept with the revision and name it was derived
#: from and re-derived when either moved.  Queries are frozen, so the memo
#: assumes no query's ``conditions`` dict is edited in place.  Key derivation
#: encodes the same workload once per ``configuration_keys`` call otherwise.
_WORKLOAD_ENCODINGS: "weakref.WeakKeyDictionary[QueryWorkload, tuple[tuple[int, str], bytes]]" = (
    weakref.WeakKeyDictionary()
)


def _encoded_workload(workload: QueryWorkload) -> bytes:
    stamp = (workload.revision, workload.name)
    cached = _WORKLOAD_ENCODINGS.get(workload)
    if cached is None or cached[0] != stamp:
        encoded = b"".join(_tagged(b"QW", workload.name.encode()))
        cached = (stamp, encoded + _encoded(workload.queries))
        _WORKLOAD_ENCODINGS[workload] = cached
    return cached[1]


def stable_digest(value: object) -> str:
    """Hex digest of ``value``'s canonical encoding (process-independent)."""
    digest = hashlib.blake2b(digest_size=20)
    for chunk in _encode(value):
        digest.update(chunk)
    return digest.hexdigest()


def task_key(kind: str, *parts: object) -> str:
    """A checkpoint-cell key: ``kind`` plus everything the result depends on."""
    return stable_digest((KEY_SCHEMA_VERSION, kind) + parts)


def _task_keys(
    kind: str,
    head: Sequence[object],
    cells: Iterable[Sequence[object]],
) -> list[str]:
    """``task_key(kind, *head, *cell)`` for each ``cell`` in ``cells``.

    The parts every key shares — the whole experiment resources among them —
    are encoded once, not once per key: the digest of the tuple's opening
    (``T(`` and the head parts) is copied for each key, which then adds its
    own parts and the closing ``)``.
    """
    opening = hashlib.blake2b(digest_size=20)
    opening.update(b"T(")
    for part in (KEY_SCHEMA_VERSION, kind, *head):
        for chunk in _encode(part):
            opening.update(chunk)
    keys = []
    for cell in cells:
        digest = opening.copy()
        for part in cell:
            for chunk in _encode(part):
                digest.update(chunk)
        digest.update(b")")
        keys.append(digest.hexdigest())
    return keys


def configuration_keys(
    dataset: Dataset,
    resources: "ExperimentResources",
    verify_privacy: bool,
    configurations: Sequence["AnonymizationConfig"],
    sweep: "ParameterSweep",
    simulate_attacks: bool = False,
) -> list[str]:
    """One key per (configuration, value) cell, in configuration-major order.

    Each key is ``task_key("sweep-point", fingerprint, resources, flags,
    config, parameter, value)``.  Computed in the orchestrating process from
    the *real* dataset (never a shared-memory manifest) and the resolved
    resources — so a resumed run, which resolves the identical resources,
    derives the identical keys in any execution mode.
    """
    return _task_keys(
        "sweep-point",
        (
            dataset.fingerprint(),
            resources,
            bool(verify_privacy),
            # The ARE label semantics once had a second value; the literal
            # keeps the keys of existing stores valid.
            "original",
            bool(simulate_attacks),
        ),
        [
            (config, sweep.parameter, value)
            for config in configurations
            for value in sweep.values
        ],
    )


# ---------------------------------------------------------------------------
# The store.


@dataclass(frozen=True)
class CheckpointOutcome:
    """What one cell lookup found: a hit, a miss, or detected corruption."""

    status: str  # "hit" | "miss" | "corrupt"
    value: Any = None
    detail: str = ""


class CheckpointStore:
    """A directory of durable, checksummed, content-addressed task cells.

    Layout: ``<directory>/FORMAT`` (the store-format header) and
    ``<directory>/cells/<key>.ckpt`` (one framed pickle per completed task).
    A ``FORMAT`` mismatch — stale layout or damaged header — rebuilds the
    store: all cells are dropped and recomputed rather than misread.

    The store is picklable (it travels into worker processes inside the
    storing worker, which persists each cell where it was computed); only
    the directory path ships, never open file handles.
    """

    FORMAT_FILE = "FORMAT"
    CELLS_DIR = "cells"
    CELL_SUFFIX = ".ckpt"

    def __init__(self, directory: str | Path) -> None:
        self._directory = Path(directory)
        self._lock = threading.Lock()
        self._stores = 0
        self._seconds_storing = 0.0
        self._seconds_loading = 0.0
        self._prepared = False

    # -- pickling (the store travels into worker processes) ------------------
    def __getstate__(self) -> str:
        return str(self._directory)

    def __setstate__(self, directory: str) -> None:
        self.__init__(directory)  # type: ignore[misc]

    # -- introspection -------------------------------------------------------
    @property
    def directory(self) -> Path:
        return self._directory

    @property
    def stores(self) -> int:
        """Cells written through this instance (this process, this life)."""
        return self._stores

    @property
    def stats(self) -> dict[str, float]:
        """Durability cost accounting for this instance's lifetime.

        ``seconds_storing`` covers pickling, framing and the fsync'd atomic
        write of every :meth:`store`; ``seconds_loading`` covers the read,
        frame verification and unpickling of every :meth:`load`.  Together
        they are the wall-clock this process spent on checkpoint machinery —
        the number the cold-overhead budget is asserted on
        (``benchmarks/bench_resume.py``), measured where it accrues instead
        of through end-to-end differencing that machine drift can swamp.
        """
        with self._lock:
            return {
                "stores": float(self._stores),
                "seconds_storing": self._seconds_storing,
                "seconds_loading": self._seconds_loading,
            }

    def cell_path(self, key: str) -> Path:
        if not key or any(char not in "0123456789abcdef" for char in key):
            raise CheckpointError(
                f"malformed checkpoint key {key!r}: keys are lowercase hex "
                f"digests (see stable_digest)"
            )
        return self._directory / self.CELLS_DIR / f"{key}{self.CELL_SUFFIX}"

    def keys(self) -> list[str]:
        """Keys of every cell currently on disk (sorted)."""
        cells = self._directory / self.CELLS_DIR
        if not cells.is_dir():
            return []
        return sorted(
            path.name[: -len(self.CELL_SUFFIX)]
            for path in cells.iterdir()
            if path.name.endswith(self.CELL_SUFFIX)
        )

    def __repr__(self) -> str:
        return f"CheckpointStore(directory={str(self._directory)!r})"

    # -- format guard --------------------------------------------------------
    def _format_header(self) -> bytes:
        return _MAGIC + struct.pack("<I", FORMAT_VERSION) + b"\n"

    def _prepare(self) -> None:
        """Create the layout; rebuild the store on a format mismatch."""
        if self._prepared:
            return
        self._directory.mkdir(parents=True, exist_ok=True)
        format_path = self._directory / self.FORMAT_FILE
        expected = self._format_header()
        try:
            current: bytes | None = format_path.read_bytes()
        except FileNotFoundError:
            current = None
        if current != expected:
            if current is not None:
                self._drop_cells()
            atomic_write_bytes(format_path, expected)
        (self._directory / self.CELLS_DIR).mkdir(exist_ok=True)
        self._prepared = True

    def _drop_cells(self) -> None:
        """Delete every cell (stale-format rebuild); keys stay content-true."""
        cells = self._directory / self.CELLS_DIR
        if not cells.is_dir():
            return
        for path in cells.iterdir():
            if path.name.endswith(self.CELL_SUFFIX):
                try:
                    path.unlink()
                except FileNotFoundError:  # pragma: no cover - raced unlink
                    continue

    # -- the cell protocol ---------------------------------------------------
    def load(self, key: str) -> CheckpointOutcome:
        """Look one cell up; damage degrades to a miss with a reason.

        Returns a ``"hit"`` with the unpickled value, a ``"miss"`` when the
        cell has never been written, or a ``"corrupt"`` when the record
        exists but fails the frame checks (torn write, truncation, bit rot,
        stale frame version) or cannot be unpickled — the caller recomputes
        and surfaces ``detail`` as a structured warning.
        """
        started = time.perf_counter()
        try:
            return self._load(key)
        finally:
            with self._lock:
                self._seconds_loading += time.perf_counter() - started

    def _load(self, key: str) -> CheckpointOutcome:
        self._prepare()
        path = self.cell_path(key)
        try:
            blob = path.read_bytes()
        except FileNotFoundError:
            return CheckpointOutcome("miss")
        except OSError as error:  # pragma: no cover - I/O failure degrades
            return CheckpointOutcome(
                "corrupt", detail=f"checkpoint cell {key} is unreadable: {error}"
            )
        try:
            payload = decode_frame(blob)
            value = pickle.loads(payload)
        except CheckpointError as error:
            return CheckpointOutcome(
                "corrupt", detail=f"checkpoint cell {key} is damaged: {error}"
            )
        # repro: allow[REP005] -- any unpickling failure IS the corruption this method exists to detect; it degrades to a structured recompute outcome, never a crash
        except Exception as error:  # noqa: BLE001
            return CheckpointOutcome(
                "corrupt",
                detail=f"checkpoint cell {key} failed to unpickle: {error!r}",
            )
        return CheckpointOutcome("hit", value=value)

    def store(self, key: str, value: Any) -> Path:
        """Persist one completed task durably (atomic, checksummed)."""
        started = time.perf_counter()
        self._prepare()
        try:
            payload = pickle.dumps(value, protocol=pickle.HIGHEST_PROTOCOL)
        except Exception as error:
            raise CheckpointError(
                f"checkpoint value for cell {key} is not picklable: {error}"
            ) from error
        path = self.cell_path(key)
        atomic_write_bytes(path, encode_frame(payload))
        with self._lock:
            self._stores += 1
            self._seconds_storing += time.perf_counter() - started
        return path


# ---------------------------------------------------------------------------
# Execution: the resume half of run_many.


@dataclass(frozen=True)
class _StoringWorker:
    """Compute-then-persist wrapper for checkpoint misses (picklable).

    Wraps the caller's worker over ``(key, task)`` pairs: the result is
    stored the moment it exists — in the worker process itself under process
    mode — so every completed task survives a crash of any *later* task.
    """

    worker: Callable[[Any], Any]
    store: CheckpointStore

    def __call__(self, wrapped: tuple[str, Any]) -> Any:
        key, task = wrapped
        value = self.worker(task)
        self.store.store(key, value)
        return value


def run_checkpointed(
    tasks: Sequence[Any],
    worker: Callable[[Any], Any],
    execution: "Execution",
    keys: Sequence[str] | None,
    report: "RunReport | None" = None,
) -> list[Any]:
    """:func:`~repro.engine.runner.run_many` with durable resume.

    The store is ``execution.checkpoint``; the misses run under the rest of
    ``execution``.  Every task needs a content-addressed key (``keys[i]``
    for ``tasks[i]``).
    Hits are served from the store — re-validated by ``policy.validate_result``
    when one exists, so a stored-but-invalid value is recomputed, never
    served.  Misses (including corrupt cells, which also land a structured
    warning on ``report``) run through the ordinary engine wrapped in the
    storing worker.  ``report`` receives one
    :class:`~repro.engine.resilience.TaskReport` per task with its
    ``checkpoint`` field set to ``"hit"``, ``"miss"`` or ``"corrupt"``.
    """
    from repro.engine.resilience import RunReport
    from repro.engine.runner import run_many

    store, policy = execution.checkpoint, execution.policy
    if store is None:
        raise CheckpointError("checkpointed execution needs a checkpoint store")
    task_list = list(tasks)
    if keys is None:
        raise CheckpointError(
            "checkpointed execution needs one checkpoint key per task; "
            "compute them with configuration_keys/task_key"
        )
    key_list = [str(key) for key in keys]
    if len(key_list) != len(task_list):
        raise CheckpointError(
            f"{len(task_list)} task(s) but {len(key_list)} checkpoint key(s)"
        )
    if len(set(key_list)) != len(key_list):
        raise CheckpointError(
            "checkpoint keys must be unique within a run; duplicate keys "
            "mean two tasks claim the same cell"
        )

    results: list[Any] = [None] * len(task_list)
    statuses = ["miss"] * len(task_list)
    warnings: list[str] = []
    misses: list[tuple[int, str, Any]] = []
    for position, (key, task) in enumerate(zip(key_list, task_list)):
        outcome = store.load(key)
        if (
            outcome.status == "hit"
            and policy is not None
            and policy.validate_result is not None
            and not policy.validate_result(outcome.value)
        ):
            outcome = CheckpointOutcome(
                "corrupt",
                detail=(
                    f"checkpoint cell {key} was rejected by the policy's "
                    f"result validator; recomputing"
                ),
            )
        if outcome.status == "hit":
            results[position] = outcome.value
            statuses[position] = "hit"
        else:
            if outcome.status == "corrupt":
                statuses[position] = "corrupt"
                warnings.append(outcome.detail)
            misses.append((position, key, task))

    sub_report = RunReport()
    if misses:
        sub_results = run_many(
            [(key, task) for _, key, task in misses],
            _StoringWorker(worker, store),
            dataclasses.replace(execution, checkpoint=None),
            sub_report,
        )
        for (position, _key, _task), value in zip(misses, sub_results):
            results[position] = value
    if report is not None:
        _merge_reports(report, sub_report, statuses, misses, warnings)
    return results


def _merge_reports(
    report: "RunReport",
    sub_report: "RunReport",
    statuses: Sequence[str],
    misses: Sequence[tuple[int, str, Any]],
    warnings: Sequence[str],
) -> None:
    """Fold the miss-run's report plus the hit bookkeeping into ``report``.

    The sub-run numbered its tasks 0..n_misses-1; its task reports are
    remapped to the original task positions, tagged with their checkpoint
    status, and interleaved with synthetic completed reports for the hits so
    ``report.tasks`` covers every task exactly once, in order.
    """
    from repro.engine.resilience import TaskReport

    report.warnings.extend(warnings)
    report.respawns += sub_report.respawns
    report.degradations += sub_report.degradations
    report.wall_seconds += sub_report.wall_seconds
    if not report.backend:
        report.backend = sub_report.backend or "checkpoint"
    computed = {position: task for task, (position, _, _) in zip(sub_report.tasks, misses)}
    for position, status in enumerate(statuses):
        task = computed.get(position)
        if task is None:
            task = TaskReport(index=position, completed=True, final_backend="checkpoint")
        task.index = position
        task.checkpoint = status
        report.tasks.append(task)
