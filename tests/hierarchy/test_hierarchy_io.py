"""Tests for hierarchy file input/output."""

import pytest

from repro.exceptions import HierarchyError
from repro.hierarchy import (
    build_numeric_hierarchy,
    load_hierarchies,
    load_hierarchy,
    read_hierarchy_text,
    save_hierarchies,
    save_hierarchy,
    write_hierarchy_text,
)

HIERARCHY_TEXT = """Primary;Lower;*
Secondary;Lower;*
BSc;Higher;*
MSc;Higher;*
"""


class TestRead:
    def test_read_paths(self):
        hierarchy = read_hierarchy_text(HIERARCHY_TEXT, attribute="Education")
        assert hierarchy.parent("Primary") == "Lower"
        assert hierarchy.parent("Lower") == "*"
        assert sorted(hierarchy.leaves()) == ["BSc", "MSc", "Primary", "Secondary"]

    def test_read_appends_missing_root(self):
        hierarchy = read_hierarchy_text("A;Group\nB;Group\n")
        assert hierarchy.parent("Group") == "*"

    def test_numeric_labels_get_interval_bounds(self):
        hierarchy = read_hierarchy_text("17;[17-30];*\n25;[17-30];*\n")
        assert hierarchy.node("17").interval == (17.0, 17.0)
        assert hierarchy.node("[17-30]").interval == (17.0, 30.0)

    def test_empty_text_rejected(self):
        with pytest.raises(HierarchyError):
            read_hierarchy_text("")

    def test_conflicting_parents_rejected(self):
        with pytest.raises(HierarchyError):
            read_hierarchy_text("A;G1;*\nA;G2;*\n")


class TestWriteAndRoundTrip:
    def test_write_read_round_trip(self):
        original = read_hierarchy_text(HIERARCHY_TEXT, attribute="Education")
        text = write_hierarchy_text(original)
        reloaded = read_hierarchy_text(text, attribute="Education")
        assert sorted(reloaded.leaves()) == sorted(original.leaves())
        for leaf in original.leaves():
            assert reloaded.ancestors(leaf) == original.ancestors(leaf)

    def test_save_and_load_file(self, tmp_path):
        hierarchy = build_numeric_hierarchy(range(20), fanout=4, attribute="Age")
        path = save_hierarchy(hierarchy, tmp_path / "age.csv")
        loaded = load_hierarchy(path, attribute="Age")
        assert sorted(loaded.leaves()) == sorted(hierarchy.leaves())

    def test_save_and_load_directory(self, tmp_path):
        hierarchies = {
            "Age": build_numeric_hierarchy(range(10), fanout=3, attribute="Age"),
            "Education": read_hierarchy_text(HIERARCHY_TEXT, attribute="Education"),
        }
        written = save_hierarchies(hierarchies, tmp_path)
        assert set(written) == {"Age", "Education"}
        loaded = load_hierarchies(tmp_path)
        assert set(loaded) == {"Age", "Education"}
        assert sorted(loaded["Education"].leaves()) == ["BSc", "MSc", "Primary", "Secondary"]

    def test_load_missing_file_raises(self, tmp_path):
        with pytest.raises(HierarchyError):
            load_hierarchy(tmp_path / "missing.csv")

    def test_load_non_utf8_file_raises_a_hierarchy_error_naming_the_file(
        self, tmp_path
    ):
        path = tmp_path / "latin1.csv"
        path.write_bytes("Zürich;Europe;*\n".encode("latin-1"))
        with pytest.raises(HierarchyError, match="latin1.csv"):
            load_hierarchy(path)

    def test_load_skips_a_utf8_byte_order_mark(self, tmp_path):
        path = tmp_path / "bom.csv"
        path.write_bytes(HIERARCHY_TEXT.encode("utf-8-sig"))
        loaded = load_hierarchy(path)
        assert sorted(loaded.leaves()) == ["BSc", "MSc", "Primary", "Secondary"]
