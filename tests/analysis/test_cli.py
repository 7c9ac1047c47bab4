"""End-to-end CLI behavior: formats, suppressions, exit codes."""

from __future__ import annotations

import json

import pytest

from lint_harness import LintHarness

from repro.analysis.cli import main

SWALLOWED = """
def swallow():
    try:
        work()
    except Exception:
        pass
"""

MANIFEST_TOML = """
[rep005]
scope = ["src"]
"""


def _setup(tmp_path):
    harness = LintHarness(tmp_path)
    harness.write("src/mod.py", SWALLOWED)
    harness.write("invariants.toml", MANIFEST_TOML)
    return harness


def _run(tmp_path, *extra: str) -> int:
    return main(
        [
            "src",
            "--root",
            str(tmp_path),
            "--manifest",
            str(tmp_path / "invariants.toml"),
            *extra,
        ]
    )


class TestCli:
    def test_finding_fails_with_exit_1(self, tmp_path, capsys):
        _setup(tmp_path)
        assert _run(tmp_path) == 1
        out = capsys.readouterr().out
        assert "REP005" in out
        assert "1 new finding(s)" in out

    def test_clean_tree_exits_0(self, tmp_path, capsys):
        harness = LintHarness(tmp_path)
        harness.write("src/mod.py", "x = 1\n")
        harness.write("invariants.toml", MANIFEST_TOML)
        assert _run(tmp_path) == 0

    def test_json_format(self, tmp_path, capsys):
        _setup(tmp_path)
        assert _run(tmp_path, "--format", "json") == 1
        payload = json.loads(capsys.readouterr().out)
        assert payload["summary"]["new"] == 1
        assert payload["findings"][0]["code"] == "REP005"
        assert payload["findings"][0]["status"] == "new"

    def test_json_carries_a_suppressed_finding_with_its_reason(self, tmp_path, capsys):
        harness = LintHarness(tmp_path)
        harness.write(
            "src/mod.py",
            SWALLOWED.replace(
                "except Exception:",
                "except Exception:  # repro: allow[REP005] -- fixture cleanup",
            ),
        )
        harness.write("invariants.toml", MANIFEST_TOML)
        assert _run(tmp_path, "--format", "json") == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["summary"] == {
            "analyzed_files": 1,
            "new": 0,
            "suppressed": 1,
            "exit_code": 0,
        }
        (finding,) = payload["findings"]
        assert (finding["status"], finding["reason"]) == ("suppressed", "fixture cleanup")

    def test_unknown_select_exits_2(self, tmp_path, capsys):
        _setup(tmp_path)
        assert _run(tmp_path, "--select", "REP999") == 2
        assert "unknown rule" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "flag", ["--baseline=b.json", "--no-baseline", "--write-baseline", "--reason=x"]
    )
    def test_baseline_flags_are_gone(self, tmp_path, capsys, flag):
        # The one escape hatch is an inline allow with a reason.
        _setup(tmp_path)
        with pytest.raises(SystemExit) as excinfo:
            _run(tmp_path, flag)
        assert excinfo.value.code == 2
        assert "unrecognized arguments" in capsys.readouterr().err

    def test_explain(self, capsys):
        assert main(["--explain", "REP002"]) == 0
        out = capsys.readouterr().out
        assert "REP002" in out
        assert "cache" in out

    def test_explain_unknown_code_exits_2(self, capsys):
        assert main(["--explain", "REP999"]) == 2
        assert "unknown rule code" in capsys.readouterr().err

    def test_list_rules(self, capsys):
        assert main(["--list-rules"]) == 0
        out = capsys.readouterr().out
        listed = {line.split()[0] for line in out.splitlines()}
        assert listed == {f"REP00{n}" for n in (0, 1, 2, 3, 4, 5, 6, 8)}

    def test_bad_path_exits_2(self, tmp_path, capsys):
        assert main(["nonexistent", "--root", str(tmp_path)]) == 2
        assert "error" in capsys.readouterr().err

    def test_verbose_lists_suppressed(self, tmp_path, capsys):
        harness = LintHarness(tmp_path)
        harness.write(
            "src/mod.py",
            SWALLOWED.replace(
                "except Exception:",
                "except Exception:  # repro: allow[REP005] -- fixture cleanup",
            ),
        )
        harness.write("invariants.toml", MANIFEST_TOML)
        assert _run(tmp_path) == 0
        assert "(suppressed)" not in capsys.readouterr().out
        assert _run(tmp_path, "--verbose") == 0
        assert "(suppressed)" in capsys.readouterr().out
