"""SARIF 2.1.0 output: schema validation and content round-trip."""

from __future__ import annotations

import json
from pathlib import Path

import pytest

from lint_harness import LintHarness

from repro.analysis.cli import main
from repro.analysis.manifest import InvariantManifest
from repro.analysis.reporting import SARIF_VERSION, render_sarif

SCHEMA_PATH = Path(__file__).with_name("sarif_2_1_0_schema.json")

SWALLOWED = """
    def swallow():
        try:
            work()
        except Exception:
            pass
"""

SCOPED = InvariantManifest(exception_scope=("src/",))


def _sarif_log(harness, source=SWALLOWED) -> dict:
    harness.write("src/mod.py", source)
    report = harness.lint("src", manifest=SCOPED, select=["REP005"])
    return json.loads(render_sarif(report))


class TestSarifSchema:
    def test_log_validates_against_sarif_2_1_0(self, harness):
        jsonschema = pytest.importorskip("jsonschema")
        schema = json.loads(SCHEMA_PATH.read_text())
        jsonschema.validate(_sarif_log(harness), schema)

    def test_suppressed_results_validate_too(self, harness):
        jsonschema = pytest.importorskip("jsonschema")
        schema = json.loads(SCHEMA_PATH.read_text())
        suppressed = SWALLOWED.replace(
            "except Exception:",
            "except Exception:  # repro: allow[REP005] -- fixture",
        )
        jsonschema.validate(_sarif_log(harness, suppressed), schema)


class TestSarifContent:
    def test_version_and_schema_pointer(self, harness):
        log = _sarif_log(harness)
        assert log["version"] == SARIF_VERSION == "2.1.0"
        assert log["$schema"].endswith("sarif-schema-2.1.0.json")

    def test_driver_lists_every_registered_rule(self, harness):
        from repro.analysis.core import all_rules

        log = _sarif_log(harness)
        driver = log["runs"][0]["tool"]["driver"]
        assert driver["name"] == "repro-lint"
        assert {rule["id"] for rule in driver["rules"]} == {
            rule.code for rule in all_rules()
        }

    def test_new_finding_is_an_error_result_with_location(self, harness):
        log = _sarif_log(harness)
        (result,) = log["runs"][0]["results"]
        assert result["ruleId"] == "REP005"
        assert result["level"] == "error"
        physical = result["locations"][0]["physicalLocation"]
        assert physical["artifactLocation"]["uri"] == "src/mod.py"
        assert physical["region"]["startLine"] >= 1
        assert physical["region"]["startColumn"] >= 1
        assert result["logicalLocations"][0]["fullyQualifiedName"] == "swallow"

    def test_suppressed_finding_is_a_note_with_suppression(self, harness):
        suppressed = SWALLOWED.replace(
            "except Exception:",
            "except Exception:  # repro: allow[REP005] -- fixture",
        )
        log = _sarif_log(harness, suppressed)
        (result,) = log["runs"][0]["results"]
        assert result["level"] == "note"
        (suppression,) = result["suppressions"]
        assert suppression["kind"] == "inSource"
        assert suppression["justification"] == "fixture"

    def test_cli_emits_the_same_document(self, tmp_path, capsys):
        harness = LintHarness(tmp_path)
        harness.write("src/mod.py", "x = 1\n")
        harness.write("invariants.toml", '[rep005]\nscope = ["src"]\n')
        assert (
            main(
                [
                    "src",
                    "--root",
                    str(tmp_path),
                    "--manifest",
                    str(tmp_path / "invariants.toml"),
                    "--format",
                    "sarif",
                ]
            )
            == 0
        )
        log = json.loads(capsys.readouterr().out)
        assert log["version"] == "2.1.0"
        assert log["runs"][0]["results"] == []
