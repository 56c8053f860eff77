"""Each lint rule flags its bad fixture and passes its good one."""

from pathlib import Path

import pytest

from repro.errors import LintError
from repro.lint import Analyzer
from repro.lint.__main__ import main

FIXTURES = Path(__file__).parent / "fixtures"


def run_rule(rule_id, filename):
    return Analyzer(select=[rule_id]).run([str(FIXTURES / filename)])


BAD_FIXTURES = [
    ("R1", "r1_bad.py", 4),
    ("R2", "r2_bad.py", 4),
    ("R3", "r3_bad.py", 4),
    ("R4", "r4_bad.py", 3),
    ("R8", "r8_bad.py", 4),
]

GOOD_FIXTURES = [
    ("R1", "r1_good.py"),
    ("R2", "r2_good.py"),
    ("R3", "r3_good.py"),
    ("R4", "r4_good.py"),
    ("R8", "r8_good.py"),
]


@pytest.mark.parametrize("rule_id,filename,expected", BAD_FIXTURES)
def test_bad_fixture_is_flagged(rule_id, filename, expected):
    report = run_rule(rule_id, filename)
    assert len(report.findings) == expected
    assert all(f.rule == rule_id for f in report.findings)


@pytest.mark.parametrize("rule_id,filename", GOOD_FIXTURES)
def test_good_fixture_is_clean(rule_id, filename):
    report = run_rule(rule_id, filename)
    assert report.findings == []


def test_r1_distinguishes_coverage_from_mixing():
    report = run_rule("R1", "r1_bad.py")
    messages = [f.message for f in report.findings]
    assert any("no [unit: ...] tag" in m for m in messages)
    assert any("incompatible units in arithmetic" in m for m in messages)
    assert any("incompatible units in comparison" in m for m in messages)


def test_r1_mixing_reaches_lambda_and_async_bodies(tmp_path):
    path = tmp_path / "bodies.py"
    path.write_text(
        "LENGTH = 2.0  #: [unit: m]\n"
        "DURATION = 4.0  #: [unit: s]\n"
        "STEP = lambda: LENGTH + DURATION\n"
        "\n"
        "\n"
        "async def late():\n"
        "    return LENGTH < DURATION\n"
    )
    report = Analyzer(select=["R1"]).run([str(path)])
    assert [(f.line, f.message) for f in report.findings] == [
        (3, "incompatible units in arithmetic: [m] vs [s]"),
        (7, "incompatible units in comparison: [m] vs [s]"),
    ]


def test_r2_names_the_sanctioned_helper():
    report = run_rule("R2", "r2_bad.py")
    assert any("quantize_key" in f.message for f in report.findings)


def test_r4_covers_all_three_shapes():
    report = run_rule("R4", "r4_bad.py")
    messages = " | ".join(f.message for f in report.findings)
    assert "bare except" in messages
    assert "except Exception" in messages
    assert "raise ValueError" in messages


def test_r8_covers_all_three_checks():
    report = run_rule("R8", "r8_bad.py")
    messages = " | ".join(f.message for f in report.findings)
    assert "missing [unit: ...] docstring tags" in messages
    assert "but the parameter is declared" in messages
    assert "but the function declares [unit-return:" in messages


def test_r8_call_mismatch_names_the_callee():
    report = run_rule("R8", "r8_bad.py")
    assert any("r8_bad.resistance" in f.message for f in report.findings)


def test_findings_are_sorted_and_deduplicated():
    report = Analyzer().run([str(FIXTURES)])
    keys = [(f.path, f.line, f.col, f.rule, f.message) for f in report.findings]
    assert keys == sorted(keys)
    assert len(keys) == len(set(keys))


def test_unknown_rule_id_rejected():
    with pytest.raises(LintError):
        Analyzer(select=["R99"])


def test_any_finding_fails_the_run(tmp_path, capsys):
    path = tmp_path / "bad.py"
    # A "disable" comment silences nothing.
    path.write_text(
        "def f():\n    raise ValueError('x')  # repro-lint: disable=R4\n"
    )
    assert main([str(path), "--select", "R4"]) == 1
    assert capsys.readouterr().out.rstrip().endswith("1 errors")


def test_unknown_rule_is_a_cli_usage_error(tmp_path):
    path = tmp_path / "empty.py"
    path.write_text("")
    assert main([str(path), "--select", "R99"]) == 2


def test_list_rules_prints_the_live_rules(capsys):
    assert main(["--list-rules"]) == 0
    listed = [line.split()[0] for line in capsys.readouterr().out.splitlines()]
    assert listed == ["R1", "R2", "R3", "R4", "R8"]


def test_missing_path_rejected():
    with pytest.raises(LintError):
        Analyzer(select=["R4"]).run([str(FIXTURES / "does_not_exist.py")])


class TestR4BoundaryModules:
    """R4 sanctions the error-boundary packages by *module path*.

    ``repro.errors`` and ``repro.faults`` deliberately raise builtin
    exceptions (the crash boundary, the ``raise-crash`` fault kind); any
    sibling module with the same code must still be flagged.  Module names
    are resolved by walking up through ``__init__.py`` parents, so the test
    builds a real package tree.
    """

    BODY = 'def f():\n    raise RuntimeError("deliberate")\n'

    def _make_tree(self, root, package):
        path = root
        for part in package.split("."):
            path = path / part
            path.mkdir()
            (path / "__init__.py").write_text("")
        mod = path / "mod.py"
        mod.write_text(self.BODY)
        return mod

    @pytest.mark.parametrize(
        "package", ["repro.faults", "repro.errors", "repro.checkpoint"]
    )
    def test_boundary_package_is_sanctioned(self, tmp_path, package):
        mod = self._make_tree(tmp_path, package)
        report = Analyzer(select=["R4"]).run([str(mod)])
        assert report.findings == []

    def test_non_boundary_sibling_is_flagged(self, tmp_path):
        mod = self._make_tree(tmp_path, "repro.chaos")
        report = Analyzer(select=["R4"]).run([str(mod)])
        assert len(report.findings) == 1
        assert report.findings[0].rule == "R4"

    def test_prefix_lookalike_is_flagged(self, tmp_path):
        # "repro.faultsextra" must not ride on the "repro.faults" sanction.
        mod = self._make_tree(tmp_path, "repro.faultsextra")
        report = Analyzer(select=["R4"]).run([str(mod)])
        assert len(report.findings) == 1
