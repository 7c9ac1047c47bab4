"""docs/static-analysis.md must stay in sync with the rule registry."""

from __future__ import annotations

import re
from pathlib import Path

from repro.analysis.core import all_rules

DOC_PATH = Path(__file__).resolve().parents[2] / "docs" / "static-analysis.md"

#: A rule-table row: ``| REP006 | process-safety | syntactic + call graph |``.
_ROW = re.compile(r"^\|\s*(REP\d{3})\s*\|\s*([a-z0-9-]+)\s*\|", re.MULTILINE)


def _documented_rows() -> dict[str, str]:
    return {code: name for code, name in _ROW.findall(DOC_PATH.read_text())}


class TestDocsSync:
    def test_every_registered_rule_is_in_the_doc_table(self):
        rows = _documented_rows()
        for rule in all_rules():
            assert rule.code in rows, f"{rule.code} missing from the doc table"
            assert rows[rule.code] == rule.name, (
                f"{rule.code} documented as {rows[rule.code]!r} "
                f"but registered as {rule.name!r}"
            )

    def test_no_phantom_rules_in_the_doc_table(self):
        registered = {rule.code for rule in all_rules()}
        assert set(_documented_rows()) <= registered

    def test_prose_section_exists_for_every_rule(self):
        text = DOC_PATH.read_text()
        for rule in all_rules():
            assert f"**{rule.code} — " in text, (
                f"{rule.code} has a table row but no prose paragraph"
            )
