"""The repository's own source tree must be lint-clean.

This is the acceptance gate CI enforces: ``python -m repro.lint src`` exits
0 with zero findings.  There is no baseline file and no way to silence a
finding: every rule holds on the whole tree.
"""

from pathlib import Path

from repro.lint import Analyzer
from repro.lint.__main__ import main

REPO_ROOT = Path(__file__).resolve().parents[2]
REPO_SRC = REPO_ROOT / "src"


def test_cli_exits_zero_on_repo_source(capsys):
    assert main([str(REPO_SRC)]) == 0
    out = capsys.readouterr().out
    assert out.rstrip().endswith(" files: 0 errors")


def test_repo_source_has_no_findings():
    report = Analyzer().run([str(REPO_SRC)])
    assert report.findings == []
    # Sanity: the run actually covered the tree.
    assert report.files_checked > 50
