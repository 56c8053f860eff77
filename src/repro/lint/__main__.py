"""Command line for the domain lint pass: ``python -m repro.lint [paths]``.

Exit status is 0 only when there are no findings -- CI runs this as a
blocking job, and there is no way to silence a finding, so the fix is in
the code.
"""

from __future__ import annotations

import argparse
import sys
from typing import List, Optional

from ..errors import LintError
from .core import Analyzer, all_rules


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="python -m repro.lint",
        description="Domain-aware static analysis (units, cache keys, "
        "worker-pool safety, error discipline).",
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
        "--list-rules",
        action="store_true",
        help="print the registered rules and exit",
    )
    return parser


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

    for finding in report.findings:
        print(finding.render())
    print(
        f"checked {report.files_checked} files: "
        f"{len(report.findings)} errors"
    )
    return report.exit_code()


if __name__ == "__main__":
    sys.exit(main())
