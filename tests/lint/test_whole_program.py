"""Whole-program behavior: units across module boundaries.

The R8 fixtures in ``fixtures/`` exercise single-file shapes; the tests
here run a real mini-package (``fixtures/unitpkg``), so units must flow
across module boundaries through the project symbol table.
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

