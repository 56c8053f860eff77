"""Command line for the domain lint pass: ``python -m repro.lint [paths]``.

Exit status is 0 only when there are no unsuppressed findings *and*
the suppression budget holds (``--max-suppressions``, default 0) -- CI runs
this as a blocking job, so a new suppression is a reviewed decision, not a
drive-by.
"""

from __future__ import annotations

import argparse
import json
import sys
from typing import List, Optional

from ..errors import LintError
from .core import Analyzer, LintReport, all_rules


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="python -m repro.lint",
        description="Domain-aware static analysis (units, cache keys, "
        "worker-pool safety, error discipline, sparse anti-patterns).",
    )
    parser.add_argument(
        "paths",
        nargs="*",
        default=["src"],
        help="files or directories to analyze (default: src)",
    )
    parser.add_argument(
        "--select",
        metavar="RULES",
        help="comma-separated rule ids to run (default: all)",
    )
    parser.add_argument(
        "--format",
        choices=("text", "json"),
        default="text",
        help="output format (default: text)",
    )
    parser.add_argument(
        "--max-suppressions",
        type=int,
        default=0,
        metavar="N",
        help="allowed number of active repro-lint: disable comments "
        "(default: 0 -- fix, don't suppress)",
    )
    parser.add_argument(
        "--list-rules",
        action="store_true",
        help="print the registered rules and exit",
    )
    return parser


def _print_text_report(report: LintReport, max_suppressions: int) -> None:
    for finding in report.findings:
        print(finding.render())
    if report.suppressed:
        print(
            f"-- suppressions in use: {len(report.suppressed)} "
            f"(budget {max_suppressions})"
        )
        for finding in report.suppressed:
            print(f"   suppressed {finding.render()}")
    for suppression in report.unused_suppressions:
        print(
            f"-- stale suppression at {suppression.path}:{suppression.line} "
            f"({', '.join(suppression.rules)}): no matching finding"
        )
    print(
        f"checked {report.files_checked} files: "
        f"{len(report.findings)} errors, {len(report.suppressed)} suppressed"
    )


def main(argv: Optional[List[str]] = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)

    if args.list_rules:
        for rule_id, rule_cls in sorted(all_rules().items()):
            print(f"{rule_id}  {rule_cls.name:<18s} {rule_cls.description}")
        return 0

    select = None
    if args.select:
        select = [r.strip() for r in args.select.split(",") if r.strip()]
    try:
        report = Analyzer(select=select).run(args.paths)
    except LintError as exc:
        print(f"repro.lint: {exc}", file=sys.stderr)
        return 2

    if args.format == "json":
        print(json.dumps(report.to_json(), indent=2, sort_keys=True))
    else:
        _print_text_report(report, args.max_suppressions)
    return report.exit_code(max_suppressions=args.max_suppressions)


if __name__ == "__main__":
    sys.exit(main())
