"""Shared-memory export of a dataset's columnar views.

``run_many(mode="process")`` originally pickled the full dataset into every
worker, so fan-out cost grew with dataset size × workers.  The flat NumPy
buffers of the columnar layer — CSR item columns, posting bitsets, relational
code/float vectors — are the natural zero-copy payload for
``multiprocessing.shared_memory``: :class:`SharedDatasetExport` packs them
into **one** named segment and describes the layout in a small picklable
:class:`SharedDatasetManifest`; :func:`attach` opens the segment in a worker
and rebuilds a read-only :class:`~repro.datasets.dataset.Dataset` view whose
array payloads are zero-copy views into the segment (the per-record Python
cells — ``Record`` dicts, itemset ``frozenset`` values — are built locally
on first read, since Python objects cannot live in shared memory).

The design splits a cheap shared read-mostly representation from per-worker
private bookkeeping: workers may derive further caches (interpreters,
occurrence joins) privately, and an algorithm that mutates its input simply
drops the shared views from the dataset's columnar cache — the segment itself
is never written to (all attached arrays are marked read-only).

Segment lifecycle: the *exporter* owns the segment and must :meth:`close
<SharedDatasetExport.close>` it (unlink + close); a ``weakref.finalize``
guard unlinks on error paths and interpreter exit.  Attaching processes only
ever ``close`` their mapping.  See ``docs/parallelism.md`` for the manifest
format and the pool lifecycle rules.
"""

from __future__ import annotations

import weakref
from dataclasses import dataclass
from multiprocessing import shared_memory
from typing import TYPE_CHECKING, Any, Iterable

import numpy as np

from repro.columnar.column import TransactionColumn
from repro.columnar.registry import clear_segment, new_segment_name, register_segment
from repro.columnar.relational import CategoricalColumn, NumericColumn
from repro.columnar.vocabulary import ItemVocabulary
from repro.datasets.attributes import Attribute, AttributeKind, Schema
from repro.exceptions import ExportError, SchemaError

if TYPE_CHECKING:  # pragma: no cover - import cycle guard (dataset ↔ columnar)
    from repro.datasets.dataset import Dataset

#: Array start offsets are aligned so every view is cache-line aligned.
_ALIGNMENT = 64


@dataclass(frozen=True)
class SharedArraySpec:
    """Location of one array inside the shared segment."""

    offset: int
    dtype: str  # numpy dtype string with explicit byte order, e.g. "<i8"
    shape: tuple[int, ...]


@dataclass(frozen=True)
class SharedDatasetManifest:
    """The small picklable description of an exported dataset.

    This is everything a worker needs to rebuild the dataset view: the
    segment name, the schema metadata, where each array lives inside the
    segment (:class:`SharedArraySpec` per key), and the per-attribute
    distinct cell values of relational columns (small: one entry per
    *distinct* value, never per record).
    """

    segment: str
    dataset_name: str
    n_records: int
    #: ``(name, kind value, quasi_identifier)`` per attribute, schema order.
    attributes: tuple[tuple[str, str, bool], ...]
    #: ``(key, spec)`` pairs; keys are ``"<attribute>/<component>"``.
    arrays: tuple[tuple[str, SharedArraySpec], ...]
    #: ``(attribute, distinct values in code order)`` for relational columns.
    relational_values: tuple[tuple[str, tuple], ...]
    #: ``(attribute, distinct cells in exact-identity order)`` for numeric
    #: columns.  Dictionary-key equality (the identity of ``codes``) can
    #: collapse cells whose types differ (``25`` and ``25.0``), which would
    #: change derived views like ``string_codes()``; the per-record
    #: ``<attribute>/cells`` array indexes into this type-exact vocabulary so
    #: reconstruction is faithful.
    numeric_cells: tuple[tuple[str, tuple], ...]
    total_bytes: int

    def schema(self) -> Schema:
        return Schema(
            Attribute(name, AttributeKind(kind), quasi_identifier)
            for name, kind, quasi_identifier in self.attributes
        )

    def array_specs(self) -> dict[str, SharedArraySpec]:
        return dict(self.arrays)


def _encode_strings(strings: Iterable[str]) -> tuple[np.ndarray, np.ndarray]:
    """Pack a sequence of strings into (utf-8 blob, int64 end offsets)."""
    encoded = [string.encode("utf-8") for string in strings]
    offsets = np.zeros(len(encoded) + 1, dtype=np.int64)
    np.cumsum([len(piece) for piece in encoded], out=offsets[1:])
    blob = np.frombuffer(b"".join(encoded), dtype=np.uint8).copy()
    return blob, offsets


def _decode_strings(blob: np.ndarray, offsets: np.ndarray) -> tuple[str, ...]:
    """Inverse of :func:`_encode_strings`."""
    raw = blob.tobytes()
    bounds = offsets.tolist()
    return tuple(
        raw[bounds[position] : bounds[position + 1]].decode("utf-8")
        for position in range(len(bounds) - 1)
    )


def _aligned(offset: int) -> int:
    return -(-offset // _ALIGNMENT) * _ALIGNMENT


def _exact_cell_codes(dataset: "Dataset", attribute: str) -> tuple[np.ndarray, tuple]:
    """Per-record codes over the distinct cells of a numeric column, keyed by
    *type-exact* identity.

    The categorical ``codes`` use dictionary-key equality, under which ``25``
    and ``25.0`` share a code — so ``values[code]`` cannot reconstruct the
    original cells exactly (their ``str()`` forms, hence ``string_codes()``,
    differ).  Keying on ``(type name, repr)`` keeps equal-but-distinct cells
    apart — including ``-0.0`` versus ``0.0``, which compare and hash equal
    as floats yet stringify differently — while preserving the dict
    behaviour for everything else.
    """
    index: dict = {}
    values: list = []
    codes = np.empty(len(dataset), dtype=np.int32)
    for position, record in enumerate(dataset.records):
        value = record[attribute]
        key = (type(value).__name__, repr(value))
        code = index.get(key)
        if code is None:
            code = len(values)
            index[key] = code
            values.append(value)
        codes[position] = code
    return codes, tuple(values)


def _unlink_segment(segment: shared_memory.SharedMemory) -> None:
    """Best-effort close + unlink + registry clear (finalizer: never raises)."""
    try:
        segment.close()
    except Exception:  # pragma: no cover - defensive
        pass
    try:
        segment.unlink()
    except FileNotFoundError:
        pass
    except Exception:  # pragma: no cover - defensive
        pass
    try:
        # Cleared *after* unlink: a crash in between leaves a registry entry
        # pointing at a dead (or soon-reaped) segment, never a live orphan.
        clear_segment(segment.name)
    except Exception:  # pragma: no cover - defensive
        pass


def _create_registered_segment(size: int) -> shared_memory.SharedMemory:
    """Create a named segment whose name is sidecar-registered *first*.

    The name is generated here (rather than letting ``SharedMemory`` pick
    one) precisely so it can be written to the crash registry before the
    segment exists; collisions are cryptographically unlikely, but the
    create is still retried a bounded number of times for defense in depth.
    """
    last_error: BaseException | None = None
    for _ in range(3):
        name = new_segment_name()
        register_segment(name)
        try:
            # repro: allow[REP001] -- the name is sidecar-registered above (reaped after a crash) and the caller attaches its weakref.finalize unlink guard immediately on return
            return shared_memory.SharedMemory(name=name, create=True, size=size)
        except FileExistsError as error:
            clear_segment(name)
            last_error = error
    raise ExportError(
        "could not allocate a shared-memory segment: three fresh names "
        "already existed"
    ) from last_error


class SharedDatasetExport:
    """One dataset packed into a single shared-memory segment.

    Builds (or reuses) the dataset's columnar views — including the posting
    bitsets of every transaction attribute, so workers never recompute them —
    copies the flat arrays into one segment, and exposes the picklable
    :attr:`manifest` that :func:`attach` consumes.  The export owns the
    segment: call :meth:`close` (or use the instance as a context manager) to
    unlink it; a finalizer guarantees unlinking on error paths.
    """

    def __init__(self, dataset: "Dataset") -> None:
        schema = dataset.schema
        self._columns: dict[str, Any] = {
            attribute.name: dataset.columnar(attribute.name) for attribute in schema
        }
        payloads: list[tuple[str, np.ndarray]] = []
        relational_values: list[tuple[str, tuple]] = []
        numeric_cells: list[tuple[str, tuple]] = []
        for attribute in schema:
            column = self._columns[attribute.name]
            if attribute.is_transaction:
                blob, offsets = _encode_strings(column.vocabulary.items)
                payloads += [
                    (f"{attribute.name}/indptr", column.indptr),
                    (f"{attribute.name}/tokens", column.tokens),
                    (f"{attribute.name}/postings", column.bitset_postings()),
                    (f"{attribute.name}/vocab_blob", blob),
                    (f"{attribute.name}/vocab_offsets", offsets),
                ]
            else:
                payloads.append((f"{attribute.name}/codes", column.codes))
                relational_values.append((attribute.name, tuple(column.values)))
                if attribute.is_numeric:
                    payloads.append((f"{attribute.name}/numbers", column.numbers))
                    cells, values = _exact_cell_codes(dataset, attribute.name)
                    payloads.append((f"{attribute.name}/cells", cells))
                    numeric_cells.append((attribute.name, values))

        specs: list[tuple[str, SharedArraySpec, np.ndarray]] = []
        offset = 0
        for key, array in payloads:
            array = np.ascontiguousarray(array)
            offset = _aligned(offset)
            specs.append(
                (key, SharedArraySpec(offset, array.dtype.str, array.shape), array)
            )
            offset += array.nbytes

        self._segment = _create_registered_segment(size=max(offset, 1))
        # The finalizer exists from the instant the segment does, so a
        # failure while copying payloads below still unlinks it.
        self._closed = False
        self._finalizer = weakref.finalize(self, _unlink_segment, self._segment)
        for _, spec, array in specs:
            view = np.ndarray(
                spec.shape,
                dtype=np.dtype(spec.dtype),
                buffer=self._segment.buf,
                offset=spec.offset,
            )
            np.copyto(view, array, casting="no")
            del view  # no exported buffers may outlive close()

        self.manifest = SharedDatasetManifest(
            segment=self._segment.name,
            dataset_name=dataset.name,
            n_records=len(dataset),
            attributes=tuple(
                (a.name, a.kind.value, a.quasi_identifier) for a in schema
            ),
            arrays=tuple((key, spec) for key, spec, _ in specs),
            relational_values=tuple(relational_values),
            numeric_cells=tuple(numeric_cells),
            total_bytes=offset,
        )

    # -- bookkeeping ---------------------------------------------------------
    @property
    def segment_name(self) -> str:
        return self.manifest.segment

    @property
    def payload_bytes(self) -> int:
        """Bytes of array payload placed in shared memory."""
        return self.manifest.total_bytes

    def matches(self, dataset: "Dataset") -> bool:
        """Whether the export still describes ``dataset``.

        Any dataset mutation invalidates its columnar cache, so the cached
        column views differ by identity from the ones this export packed.
        """
        try:
            return all(
                dataset.columnar(name) is column
                for name, column in self._columns.items()
            )
        except SchemaError:
            return False

    def segment_alive(self) -> bool:
        """Whether the segment still exists in the OS namespace.

        An export can go stale without ``close()`` ever being called: the
        resource tracker of a crashed worker generation may unlink segments
        it considered leaked.  Recovery paths probe before re-exporting.
        """
        if self._closed:
            return False
        try:
            probe = shared_memory.SharedMemory(name=self.segment_name)
        except FileNotFoundError:
            return False
        probe.close()
        return True

    # -- lifecycle -----------------------------------------------------------
    def close(self) -> None:
        """Unlink the segment.  Idempotent; safe to call on error paths."""
        if self._closed:
            return
        self._closed = True
        self._finalizer.detach()
        _unlink_segment(self._segment)

    def __enter__(self) -> "SharedDatasetExport":
        return self

    def __exit__(self, *exc_info: object) -> None:
        self.close()

    def __repr__(self) -> str:
        return (
            f"SharedDatasetExport(segment={self.segment_name!r}, "
            f"records={self.manifest.n_records}, bytes={self.payload_bytes})"
        )


def attach(manifest: SharedDatasetManifest) -> "Dataset":
    """Rebuild a read-only dataset view from an exported segment.

    Array payloads are zero-copy views into the shared segment (marked
    read-only); the columnar cache of the returned dataset is pre-seeded with
    them, so metric/algorithm kernels in the worker run directly on shared
    memory.  The records are built locally from those columns the first
    time something reads them (:meth:`Dataset.from_columns`).

    The returned dataset keeps the segment mapping alive for its own
    lifetime.  Treat it as read-only input: algorithms that transform data
    already copy first (``dataset.copy()``), and mutating the view would only
    drop the shared columns from its cache, never write to the segment.
    """
    from repro.datasets.dataset import Dataset

    # Note on the resource tracker: Python ≤ 3.12 registers a segment on
    # *attach* as well as on create, but pool workers share the exporter's
    # tracker (the fd is inherited by fork and spawn children alike) and its
    # cache is a per-name set — the attach-side registration is an idempotent
    # no-op there, and the exporter's unlink() removes the single entry.
    segment = shared_memory.SharedMemory(name=manifest.segment)
    specs = manifest.array_specs()

    def view(key: str) -> np.ndarray:
        spec = specs[key]
        array = np.ndarray(
            spec.shape,
            dtype=np.dtype(spec.dtype),
            buffer=segment.buf,
            offset=spec.offset,
        )
        array.flags.writeable = False
        return array

    schema = manifest.schema()
    relational_values = dict(manifest.relational_values)
    numeric_cells = dict(manifest.numeric_cells)
    columns: dict[str, Any] = {}
    cells_by_attribute: dict[str, list] = {}
    for attribute in schema:
        name = attribute.name
        if attribute.is_transaction:
            items = _decode_strings(
                view(f"{name}/vocab_blob"), view(f"{name}/vocab_offsets")
            )
            column = TransactionColumn(
                ItemVocabulary(items),
                view(f"{name}/indptr"),
                view(f"{name}/tokens"),
                attribute=name,
            )
            column._postings = view(f"{name}/postings")
            columns[name] = column
        else:
            codes = view(f"{name}/codes")
            values = relational_values[name]
            if attribute.is_numeric:
                # Reconstruct cells from the type-exact vocabulary (see
                # _exact_cell_codes), not from values[code].
                exact_values = numeric_cells[name]
                cells = [
                    exact_values[code]
                    for code in view(f"{name}/cells").tolist()
                ]
                columns[name] = NumericColumn(
                    values,
                    codes,
                    attribute=name,
                    cells=cells,
                    numbers=view(f"{name}/numbers"),
                )
            else:
                cells = [values[code] for code in codes.tolist()]
                columns[name] = CategoricalColumn(
                    values, codes, attribute=name, cells=cells
                )
            cells_by_attribute[name] = cells

    dataset = Dataset.from_columns(
        schema,
        manifest.n_records,
        cells_by_attribute,
        columns,
        name=manifest.dataset_name,
    )
    dataset._shared_segment = segment  # keeps the mapping alive with the view
    return dataset


#: Per-process cache of attached datasets, keyed by segment name, so a pool
#: worker attaches each export once and reuses the view across tasks.
#: Segment names are random and never reused within a pool's lifetime.
_ATTACHED: dict[str, "Dataset"] = {}

#: FIFO bound on the attach cache: a long-lived worker serving many exports
#: (e.g. re-exports after dataset mutations) must not accumulate one
#: materialized dataset copy per segment.  Evicted entries only lose their
#: cache slot — in-flight tasks keep their dataset (and its mapping) alive
#: through ordinary references.
_ATTACH_CACHE_LIMIT = 8


def attach_cached(manifest: SharedDatasetManifest) -> "Dataset":
    """:func:`attach`, memoized per process (the worker-side entry point)."""
    dataset = _ATTACHED.get(manifest.segment)
    if dataset is None:
        dataset = attach(manifest)
        while len(_ATTACHED) >= _ATTACH_CACHE_LIMIT:
            _ATTACHED.pop(next(iter(_ATTACHED)))
        _ATTACHED[manifest.segment] = dataset
    return dataset


def resolve_shared_dataset(payload: object) -> object:
    """Turn a task payload into a dataset: attach manifests, pass datasets."""
    if isinstance(payload, SharedDatasetManifest):
        return attach_cached(payload)
    return payload
