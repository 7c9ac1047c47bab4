"""Text, JSON and SARIF reporters for analysis runs."""

from __future__ import annotations

import json
from typing import Any

from repro.analysis.core import AnalysisReport, Finding, all_rules


def _status(finding: Finding) -> str:
    return "suppressed" if finding.suppressed else "new"


def render_text(report: AnalysisReport, verbose: bool = False) -> str:
    """Human-readable report: one line per finding plus a summary line.

    By default only *new* findings are listed; ``verbose`` also lists the
    suppressed ones (tagged), which is how you audit what the inline
    allows are currently hiding.
    """
    lines: list[str] = []
    for finding in report.findings:
        if not verbose and not finding.is_new:
            continue
        tag = "" if finding.is_new else f" ({_status(finding)})"
        where = f" in {finding.symbol}" if finding.symbol else ""
        lines.append(
            f"{finding.location()}: {finding.code} {finding.message}{where}{tag}"
        )
    lines.append(
        f"{len(report.new_findings)} new finding(s), "
        f"{len(report.suppressed_findings)} suppressed "
        f"({report.analyzed_files} files analyzed)"
    )
    return "\n".join(lines)


def render_json(report: AnalysisReport) -> str:
    """Machine-readable report (stable key order, one object per finding)."""
    payload = {
        "summary": {
            "analyzed_files": report.analyzed_files,
            "new": len(report.new_findings),
            "suppressed": len(report.suppressed_findings),
            "exit_code": report.exit_code,
        },
        "findings": [
            {
                "code": finding.code,
                "message": finding.message,
                "path": finding.path,
                "line": finding.line,
                "column": finding.column,
                "symbol": finding.symbol,
                "status": _status(finding),
                "reason": finding.suppression_reason,
            }
            for finding in report.findings
        ],
    }
    return json.dumps(payload, indent=2)


#: Canonical SARIF 2.1.0 identifiers (fixed by the spec, not by us).
SARIF_VERSION = "2.1.0"
SARIF_SCHEMA_URI = (
    "https://raw.githubusercontent.com/oasis-tcs/sarif-spec/master/"
    "Schemata/sarif-schema-2.1.0.json"
)


def _sarif_result(finding: Finding) -> dict[str, Any]:
    result: dict[str, Any] = {
        "ruleId": finding.code,
        "level": "error" if finding.is_new else "note",
        "message": {"text": finding.message},
        "locations": [
            {
                "physicalLocation": {
                    "artifactLocation": {"uri": finding.path},
                    "region": {
                        "startLine": max(finding.line, 1),
                        # SARIF columns are 1-based; ast col_offset is 0-based.
                        "startColumn": finding.column + 1,
                    },
                }
            }
        ],
    }
    if finding.symbol:
        result["logicalLocations"] = [
            {"fullyQualifiedName": finding.symbol, "kind": "function"}
        ]
    if finding.suppressed:
        result["suppressions"] = [
            {"kind": "inSource", "justification": finding.suppression_reason}
        ]
    return result


def render_sarif(report: AnalysisReport) -> str:
    """SARIF 2.1.0 log for CI PR annotation (codeql-action/upload-sarif).

    New findings are ``error``-level results; suppressed findings ship as
    ``note``-level results carrying an ``inSource`` SARIF suppression with
    the ``# repro: allow`` reason, so the escape hatch stays auditable in
    the uploaded log.
    """
    driver = {
        "name": "repro-lint",
        "semanticVersion": "1.0.0",
        "rules": [
            {
                "id": rule.code,
                "name": rule.name,
                "shortDescription": {"text": rule.summary},
                "fullDescription": {"text": rule.explanation},
            }
            for rule in all_rules()
        ],
    }
    payload: dict[str, Any] = {
        "$schema": SARIF_SCHEMA_URI,
        "version": SARIF_VERSION,
        "runs": [
            {
                "tool": {"driver": driver},
                "results": [
                    _sarif_result(finding) for finding in report.findings
                ],
            }
        ],
    }
    return json.dumps(payload, indent=2)
