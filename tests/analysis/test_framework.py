"""Framework behavior: suppressions, registry, manifest loading."""

from __future__ import annotations

import pytest

from lint_harness import new_codes

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


class TestInlineAllow:
    """The inline allow is the one escape hatch: pin where it reaches."""

    def _rep005(self, harness, source):
        return harness.findings("src/mod.py", source, manifest=SCOPED, select=["REP005"])

    @pytest.mark.parametrize("separator", ["--", ":", "—"])
    def test_each_reason_separator_suppresses_and_keeps_the_reason(
        self, harness, separator
    ):
        source = SWALLOWED.replace(
            "except Exception:",
            f"except Exception:  {_ALLOW}[REP005] {separator} logged upstream",
        )
        (finding,) = self._rep005(harness, source)
        assert finding.suppressed
        assert finding.suppression_reason == "logged upstream"
        assert new_codes([finding]) == []

    def test_standalone_comment_covers_the_next_line(self, harness):
        source = SWALLOWED.replace(
            "        except Exception:",
            f"        {_ALLOW}[REP005] -- logged upstream\n        except Exception:",
        )
        (finding,) = self._rep005(harness, source)
        assert finding.suppressed

    def test_standalone_comment_does_not_reach_two_lines_down(self, harness):
        source = SWALLOWED.replace(
            "        try:",
            f"        {_ALLOW}[REP005] -- logged upstream\n        try:",
        )
        assert new_codes(self._rep005(harness, source)) == ["REP005"]

    def test_a_code_list_covers_each_listed_code(self, harness):
        source = SWALLOWED.replace(
            "except Exception:",
            f"except Exception:  {_ALLOW}[REP001, REP005] -- logged upstream",
        )
        (finding,) = self._rep005(harness, source)
        assert finding.suppressed

    def test_an_allow_on_another_statement_does_not_apply(self, harness):
        source = SWALLOWED.replace(
            "work()", f"work()  {_ALLOW}[REP005] -- logged upstream"
        )
        assert new_codes(self._rep005(harness, source)) == ["REP005"]


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

    def test_nonexistent_path_raises(self, harness):
        with pytest.raises(AnalysisError, match="no such path"):
            harness.lint("missing_dir")
