"""Reading and writing generalization hierarchies.

SECRETA's Configuration Editor loads hierarchies from files and lets the user
browse and export them.  The file format used here is the de-facto standard of
anonymization toolkits (one CSV line per leaf listing the full generalization
path, most specific value first)::

    17;[17-30];[17-60];*
    Tech;White-collar;*

Lines may have different lengths; missing levels are padded towards the root.
"""

from __future__ import annotations

import csv
import io
from pathlib import Path
from typing import Mapping

from repro.exceptions import HierarchyError
from repro.hierarchy.builders import ROOT_LABEL, parse_interval
from repro.hierarchy.hierarchy import Hierarchy, HierarchyBuilder

DEFAULT_DELIMITER = ";"


def hierarchy_from_paths(
    paths: list[list[str]], attribute: str = "", root_label: str = ROOT_LABEL
) -> Hierarchy:
    """Build a hierarchy from leaf-to-root paths.

    Each path lists labels from the leaf (most specific) towards the root.  A
    final ``root_label`` element is appended when absent so that all paths
    share a single root.
    """
    if not paths:
        raise HierarchyError("cannot build a hierarchy from an empty path list")
    builder = HierarchyBuilder(root_label, attribute=attribute)
    for path in paths:
        cleaned = [str(label).strip() for label in path if str(label).strip()]
        if not cleaned:
            continue
        if cleaned[-1] != root_label:
            cleaned.append(root_label)
        # Root-to-leaf order, skipping the shared root itself.
        builder.add_path(list(reversed(cleaned))[1:])
    hierarchy = builder.build()
    _annotate_intervals(hierarchy)
    return hierarchy


def _annotate_intervals(hierarchy: Hierarchy) -> None:
    """Attach numeric bounds to nodes whose labels are numbers or intervals."""
    for node in hierarchy.iter_nodes():
        bounds = parse_interval(node.label)
        if bounds is None:
            try:
                value = float(node.label)
                bounds = (value, value)
            except ValueError:
                continue
        node.interval = bounds


def read_hierarchy_text(
    text: str,
    attribute: str = "",
    delimiter: str = DEFAULT_DELIMITER,
    root_label: str = ROOT_LABEL,
) -> Hierarchy:
    """Parse hierarchy CSV text (one leaf-to-root path per line)."""
    reader = csv.reader(io.StringIO(text), delimiter=delimiter)
    paths = [row for row in reader if any(cell.strip() for cell in row)]
    if not paths:
        raise HierarchyError("hierarchy file is empty")
    return hierarchy_from_paths(paths, attribute=attribute, root_label=root_label)


def load_hierarchy(
    path: str | Path,
    attribute: str = "",
    delimiter: str = DEFAULT_DELIMITER,
    root_label: str = ROOT_LABEL,
) -> Hierarchy:
    """Load a hierarchy from a UTF-8 CSV file (see module docstring for the format).

    A leading byte-order mark is skipped, so it never becomes part of a label.
    """
    path = Path(path)
    try:
        text = path.read_text(encoding="utf-8-sig")
    except OSError as error:
        raise HierarchyError(f"cannot read hierarchy file {path}: {error}") from error
    except UnicodeDecodeError as error:
        raise HierarchyError(f"hierarchy file {path} is not UTF-8: {error}") from error
    return read_hierarchy_text(
        text,
        attribute=attribute or path.stem,
        delimiter=delimiter,
        root_label=root_label,
    )


def write_hierarchy_text(
    hierarchy: Hierarchy, delimiter: str = DEFAULT_DELIMITER
) -> str:
    """Serialise a hierarchy as one leaf-to-root path per line."""
    buffer = io.StringIO()
    writer = csv.writer(buffer, delimiter=delimiter, lineterminator="\n")
    for row in hierarchy.to_mapping_rows():
        writer.writerow(row)
    return buffer.getvalue()


def save_hierarchy(
    hierarchy: Hierarchy, path: str | Path, delimiter: str = DEFAULT_DELIMITER
) -> Path:
    """Write a hierarchy to a CSV file and return the path."""
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(write_hierarchy_text(hierarchy, delimiter=delimiter), encoding="utf-8")
    return path


def save_hierarchies(
    hierarchies: Mapping[str, Hierarchy],
    directory: str | Path,
    delimiter: str = DEFAULT_DELIMITER,
) -> dict[str, Path]:
    """Write one hierarchy file per attribute into ``directory``."""
    directory = Path(directory)
    directory.mkdir(parents=True, exist_ok=True)
    written = {}
    for attribute, hierarchy in hierarchies.items():
        written[attribute] = save_hierarchy(
            hierarchy, directory / f"hierarchy_{attribute}.csv", delimiter=delimiter
        )
    return written


def load_hierarchies(
    directory: str | Path, delimiter: str = DEFAULT_DELIMITER
) -> dict[str, Hierarchy]:
    """Load every ``hierarchy_<attribute>.csv`` file found in ``directory``."""
    directory = Path(directory)
    hierarchies = {}
    for path in sorted(directory.glob("hierarchy_*.csv")):
        attribute = path.stem[len("hierarchy_") :]
        hierarchies[attribute] = load_hierarchy(
            path, attribute=attribute, delimiter=delimiter
        )
    return hierarchies
