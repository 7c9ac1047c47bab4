"""The linter's own acceptance test: this repository must lint clean.

Runs the exact command CI runs (``python -m repro.analysis src tests
benchmarks``) against the working tree and requires zero new findings —
everything the rules flag must be fixed or suppressed with a reason.
"""

from __future__ import annotations

import json
from pathlib import Path

from repro.analysis.cli import main

REPO_ROOT = Path(__file__).resolve().parents[2]


class TestSelfRun:
    def test_repository_is_clean(self, capsys):
        exit_code = main(
            [
                "src",
                "tests",
                "benchmarks",
                "--root",
                str(REPO_ROOT),
                "--format",
                "json",
            ]
        )
        payload = json.loads(capsys.readouterr().out)
        new = [f for f in payload["findings"] if f["status"] == "new"]
        assert new == [], f"repo has unhandled lint findings: {new}"
        assert exit_code == 0

    def test_every_suppression_carries_a_reason(self, capsys):
        main(
            [
                "src",
                "tests",
                "benchmarks",
                "--root",
                str(REPO_ROOT),
                "--format",
                "json",
            ]
        )
        payload = json.loads(capsys.readouterr().out)
        handled = [f for f in payload["findings"] if f["status"] == "suppressed"]
        assert handled, "expected the repo to exercise suppressions"
        for finding in handled:
            assert finding["reason"].strip(), finding
            assert "TODO" not in finding["reason"], finding
