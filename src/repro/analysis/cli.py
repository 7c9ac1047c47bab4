"""Command-line driver: ``python -m repro.analysis [paths]``.

Exit codes: 0 — clean (modulo suppressions), 1 — new findings,
2 — the analyzer itself was misused (bad path, bad manifest, unknown rule).
"""

from __future__ import annotations

import argparse
import sys
import textwrap
from pathlib import Path
from typing import Sequence

from repro.analysis.core import all_rules, analyze_paths, rule_by_code
from repro.analysis.manifest import InvariantManifest
from repro.analysis.reporting import render_json, render_sarif, render_text
from repro.exceptions import AnalysisError


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="python -m repro.analysis",
        description="AST-based invariant linter for the repro codebase.",
    )
    parser.add_argument(
        "paths",
        nargs="*",
        default=["src"],
        help="files or directories to analyze (default: src)",
    )
    parser.add_argument(
        "--root",
        default=None,
        help="repository root that manifest paths are relative to "
        "(default: current directory)",
    )
    parser.add_argument(
        "--format",
        choices=("text", "json", "sarif"),
        default="text",
        help="report format (default: text); sarif emits a SARIF 2.1.0 log "
        "for CI PR annotation",
    )
    parser.add_argument(
        "--verbose",
        action="store_true",
        help="also list suppressed findings in text output",
    )
    parser.add_argument(
        "--select",
        action="append",
        metavar="CODE",
        help="run only these rule codes (repeatable; REP000 always runs)",
    )
    parser.add_argument(
        "--manifest",
        default=None,
        help="alternative invariant manifest (default: the packaged one)",
    )
    parser.add_argument(
        "--explain",
        metavar="CODE",
        default=None,
        help="print the rationale for one rule code and exit",
    )
    parser.add_argument(
        "--list-rules",
        action="store_true",
        help="list the registered rule codes and exit",
    )
    return parser


def _explain(code: str) -> int:
    rule = rule_by_code(code)
    print(f"{rule.code} ({rule.name}): {rule.summary}")
    print()
    print(textwrap.fill(rule.explanation, width=78))
    return 0


def _list_rules() -> int:
    for rule in all_rules():
        print(f"{rule.code}  {rule.name:<24} {rule.summary}")
    return 0


def main(argv: Sequence[str] | None = None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        if args.explain:
            return _explain(args.explain)
        if args.list_rules:
            return _list_rules()

        report = analyze_paths(
            args.paths,
            root=Path(args.root).resolve() if args.root else Path.cwd(),
            manifest=InvariantManifest.load(args.manifest),
            select=args.select,
        )
    except AnalysisError as error:
        print(f"repro-lint: error: {error}", file=sys.stderr)
        return 2

    if args.format == "json":
        print(render_json(report))
    elif args.format == "sarif":
        print(render_sarif(report))
    else:
        print(render_text(report, verbose=args.verbose))
    return report.exit_code
