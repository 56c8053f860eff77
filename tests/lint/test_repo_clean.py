"""The repository's own source tree must be lint-clean, suppression-free.

This is the acceptance gate CI enforces: ``python -m repro.lint src`` exits
0 with zero findings and zero suppressions.  There is no baseline file:
every rule holds on the whole tree.
"""

from pathlib import Path

from repro.lint import Analyzer
from repro.lint.__main__ import main

REPO_ROOT = Path(__file__).resolve().parents[2]
REPO_SRC = REPO_ROOT / "src"


def test_cli_exits_zero_on_repo_source(capsys):
    assert main([str(REPO_SRC)]) == 0
    out = capsys.readouterr().out
    assert "0 errors, 0 suppressed" in out


def test_repo_source_has_no_suppressions_at_all():
    report = Analyzer().run([str(REPO_SRC)])
    assert report.findings == []
    assert report.suppressed == []
    assert report.unused_suppressions == []
    # Sanity: the run actually covered the tree.
    assert report.files_checked > 50
