"""Whole-program behavior: units and taint across module boundaries.

The R8/R9 fixtures in ``fixtures/`` exercise single-file shapes; the tests
here run real mini-packages (``fixtures/unitpkg``, ``fixtures/detpkg``) so
units and taint must flow across module boundaries through the project
symbol table and call graph.
"""

from pathlib import Path

from repro.lint import Analyzer

FIXTURES = Path(__file__).parent / "fixtures"


class TestR8AcrossModules:
    """Unit mismatches are caught at call sites in *other* modules.

    ``fixtures/unitpkg/`` is a real package: ``phys.py`` declares parameter
    units in its docstring, ``use_bad.py`` passes a tagged length constant
    where a pressure is declared, ``use_good.py`` matches the declaration.
    """

    def test_mismatch_across_modules_is_flagged(self):
        report = Analyzer(select=["R8"]).run([str(FIXTURES / "unitpkg")])
        assert len(report.findings) == 2
        assert all(
            "unitpkg.phys.resistance" in f.message for f in report.findings
        )
        assert all(f.path.endswith("use_bad.py") for f in report.findings)

    def test_mismatch_names_both_units(self):
        report = Analyzer(select=["R8"]).run([str(FIXTURES / "unitpkg")])
        messages = " | ".join(f.message for f in report.findings)
        assert "has unit [m]" in messages
        assert "'pressure'" in messages and "'flow'" in messages


class TestR9AcrossModules:
    """Taint crosses call/return edges; boundary modules launder it.

    ``fixtures/detpkg/`` pairs two helpers that both return ``time.time()``
    -- one plain, one declaring ``repro-lint-scope: determinism-boundary``
    -- with callers keying a cache off each.
    """

    def test_taint_crosses_module_call_edge_boundary_does_not(self):
        report = Analyzer(select=["R9"]).run([str(FIXTURES / "detpkg")])
        assert len(report.findings) == 1
        finding = report.findings[0]
        assert finding.path.endswith("use_bad.py")
        assert "wall-clock" in finding.message
        # use_boundary.py keys the same cache off the sanctioned helper
        # and must stay clean.
