"""Framework behavior: suppressions, baseline, registry, manifest loading."""

from __future__ import annotations

import json

import pytest

from lint_harness import new_codes

from repro.analysis.baseline import Baseline, BaselineEntry, fingerprint
from repro.analysis.core import Finding, Rule, all_rules, register, rule_by_code
from repro.analysis.manifest import DEFAULT_MANIFEST_PATH, InvariantManifest
from repro.exceptions import AnalysisError

# Built by concatenation so linting *this* file never sees a reason-less
# suppression comment on one source line.
_ALLOW = "# repro: " + "allow"

SWALLOWED = """
    def swallow():
        try:
            work()
        except Exception:
            pass
"""

SCOPED = InvariantManifest(exception_scope=("src/",))


class TestSuppressionHygiene:
    def test_reasonless_suppression_is_rep000(self, harness):
        source = f"x = 1  {_ALLOW}[REP005]\n"
        findings = harness.findings("src/mod.py", source)
        assert new_codes(findings) == ["REP000"]
        assert "without a reason" in findings[0].message

    def test_unknown_code_is_rep000(self, harness):
        source = f"x = 1  {_ALLOW}[BOGUS1] -- because\n"
        findings = harness.findings("src/mod.py", source)
        assert new_codes(findings) == ["REP000"]
        assert "unknown" in findings[0].message

    def test_rep000_cannot_be_suppressed(self, harness):
        source = (
            f"{_ALLOW}[REP000] -- hush\n"  # standalone: would cover next line
            f"x = 1  {_ALLOW}[REP005]\n"
        )
        findings = harness.findings("src/mod.py", source)
        assert any(f.code == "REP000" and f.is_new for f in findings)

    def test_rep000_runs_even_under_select(self, harness):
        source = f"x = 1  {_ALLOW}[REP005]\n"
        findings = harness.findings("src/mod.py", source, select=["REP004"])
        assert new_codes(findings) == ["REP000"]

    def test_syntax_error_becomes_rep000(self, harness):
        findings = harness.findings("src/mod.py", "def broken(:\n")
        assert new_codes(findings) == ["REP000"]
        assert "does not parse" in findings[0].message

    def test_suppression_of_other_code_does_not_apply(self, harness):
        source = SWALLOWED.replace(
            "except Exception:",
            "except Exception:  # repro: allow[REP001] -- wrong code",
        )
        findings = harness.findings(
            "src/mod.py", source, manifest=SCOPED, select=["REP005"]
        )
        assert new_codes(findings) == ["REP005"]


class TestBaseline:
    def _finding_and_line(self, harness):
        harness.write("src/mod.py", SWALLOWED)
        report = harness.lint("src", manifest=SCOPED, select=["REP005"])
        (finding,) = report.findings
        line_text = (harness.root / "src/mod.py").read_text().splitlines()[
            finding.line - 1
        ]
        return finding, line_text

    def test_round_trip_and_match(self, harness, tmp_path):
        finding, line_text = self._finding_and_line(harness)
        baseline = Baseline.from_findings([(finding, line_text)], reason="legacy")
        path = tmp_path / "baseline.json"
        baseline.save(path)
        loaded = Baseline.load(path)
        assert len(loaded) == 1
        entry = loaded.lookup(fingerprint(finding, line_text=line_text))
        assert entry is not None
        assert entry.reason == "legacy"
        assert entry.code == "REP005"

    def test_fingerprint_survives_line_drift_but_not_edits(self, harness):
        finding, line_text = self._finding_and_line(harness)
        original = fingerprint(finding, line_text=line_text)
        # Same content at a different line number: same fingerprint.
        from dataclasses import replace

        shifted = replace(finding, line=finding.line + 10)
        assert fingerprint(shifted, line_text=line_text) == original
        # Whitespace-only change: same fingerprint.
        assert fingerprint(finding, line_text="  " + line_text + "  ") == original
        # The offending line itself changed: the entry expires.
        assert fingerprint(finding, line_text="except BaseException:") != original

    def test_missing_file_is_empty(self, tmp_path):
        assert len(Baseline.load(tmp_path / "nope.json")) == 0

    def test_bad_version_raises(self, tmp_path):
        path = tmp_path / "baseline.json"
        path.write_text(json.dumps({"version": 99, "entries": []}))
        with pytest.raises(AnalysisError, match="version"):
            Baseline.load(path)

    def test_malformed_entry_raises(self, tmp_path):
        path = tmp_path / "baseline.json"
        path.write_text(
            json.dumps({"version": 1, "entries": [{"code": "REP001"}]})
        )
        with pytest.raises(AnalysisError, match="missing"):
            Baseline.load(path)

    def test_save_is_deterministic(self, tmp_path):
        entries = [
            BaselineEntry("bb", "REP002", "src/b.py", "f", "why"),
            BaselineEntry("aa", "REP001", "src/a.py", "g", "why"),
        ]
        first, second = tmp_path / "one.json", tmp_path / "two.json"
        Baseline(entries).save(first)
        Baseline(reversed(entries)).save(second)
        assert first.read_text() == second.read_text()


class TestRegistry:
    def test_all_rules_covers_every_rep_code(self):
        codes = {rule.code for rule in all_rules()}
        assert codes == {
            "REP000",
            "REP001",
            "REP002",
            "REP003",
            "REP004",
            "REP005",
            "REP006",
            "REP007",
            "REP008",
        }

    def test_rule_by_code_is_case_insensitive(self):
        assert rule_by_code("rep004").code == "REP004"

    def test_unknown_code_raises(self):
        with pytest.raises(AnalysisError, match="unknown rule code"):
            rule_by_code("REP999")

    def test_duplicate_code_rejected(self):
        class Imposter(Rule):
            code = "REP001"
            name = "imposter"

        with pytest.raises(AnalysisError, match="duplicate"):
            register(Imposter)

    def test_every_rule_has_summary_and_explanation(self):
        for rule in all_rules():
            assert rule.summary, rule.code
            assert len(rule.explanation) > 80, rule.code

    def test_select_unknown_rule_raises(self, harness):
        harness.write("src/mod.py", "x = 1\n")
        with pytest.raises(AnalysisError, match="unknown rule"):
            harness.lint("src", select=["REP999"])


class TestManifest:
    def test_packaged_manifest_loads(self):
        manifest = InvariantManifest.load()
        assert DEFAULT_MANIFEST_PATH.exists()
        assert manifest.parity_pairs
        assert manifest.hot_modules
        assert "run_many" in manifest.worker_calls
        assert manifest.worker_calls["run_many"].process_only is False
        assert manifest.worker_calls["fan_out_shared"].process_only is False
        # An Execution can hold a WorkerPool, so no task payload may carry one.
        assert "Execution" in manifest.forbidden_field_types

    def test_bad_worker_call_entry_rejected(self):
        with pytest.raises(AnalysisError, match="worker_calls"):
            InvariantManifest.from_mapping(
                {"rep006": {"worker_calls": {"run_many": {"arg": -1}}}}
            )

    def test_pair_without_fallback_rejected(self):
        with pytest.raises(AnalysisError, match="fallback"):
            InvariantManifest.from_mapping(
                {"rep003": {"pairs": [{"kernel": "src/a.py::f"}]}}
            )

    def test_missing_manifest_file_raises(self, tmp_path):
        with pytest.raises(AnalysisError, match="cannot read"):
            InvariantManifest.load(tmp_path / "absent.toml")


class TestFindingModel:
    def test_is_new_reflects_escape_hatches(self):
        finding = Finding("REP001", "m", "src/a.py", 1, 0)
        assert finding.is_new
        from dataclasses import replace

        assert not replace(finding, suppressed=True).is_new
        assert not replace(finding, baselined=True).is_new

    def test_nonexistent_path_raises(self, harness):
        with pytest.raises(AnalysisError, match="no such path"):
            harness.lint("missing_dir")
