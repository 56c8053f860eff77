"""Each lint rule flags its bad fixture and passes its good one."""

from pathlib import Path

import pytest

from repro.errors import LintError
from repro.lint import Analyzer

FIXTURES = Path(__file__).parent / "fixtures"


def run_rule(rule_id, filename):
    return Analyzer(select=[rule_id]).run([str(FIXTURES / filename)])


BAD_FIXTURES = [
    ("R1", "r1_bad.py", 4),
    ("R2", "r2_bad.py", 4),
    ("R3", "r3_bad.py", 4),
    ("R4", "r4_bad.py", 3),
    ("R5", "r5_bad.py", 6),
    ("R6", "r6_bad.py", 4),
    ("R7", "r7_bad.py", 7),
    ("R8", "r8_bad.py", 4),
    ("R9", "r9_bad.py", 7),
]

GOOD_FIXTURES = [
    ("R1", "r1_good.py"),
    ("R2", "r2_good.py"),
    ("R3", "r3_good.py"),
    ("R4", "r4_good.py"),
    ("R5", "r5_good.py"),
    ("R6", "r6_good.py"),
    ("R7", "r7_good.py"),
    ("R8", "r8_good.py"),
    ("R9", "r9_good.py"),
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
    assert report.suppressed == []


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


def test_r7_covers_every_hygiene_shape():
    report = run_rule("R7", "r7_bad.py")
    messages = " | ".join(f.message for f in report.findings)
    assert "not declared in repro.telemetry.names" in messages
    assert "dot-namespaced" in messages
    assert "dynamic expression" in messages
    assert "wildcard boundary" in messages
    assert "first positional argument" in messages


def test_r7_wildcard_accepts_boundary_fstrings_only():
    good = run_rule("R7", "r7_good.py")
    assert good.findings == []
    bad = run_rule("R7", "r7_bad.py")
    assert any("f\"thermal." in f.message for f in bad.findings)


def test_r6_covers_every_persistence_shape():
    report = run_rule("R6", "r6_bad.py")
    messages = " | ".join(f.message for f in report.findings)
    assert "json.dump()" in messages
    assert "pickle.dump()" in messages
    assert ".write_text(json.dumps(...))" in messages
    assert ".write(pickle.dumps(...))" in messages


def test_r6_names_the_sanctioned_helpers():
    report = run_rule("R6", "r6_bad.py")
    assert all("repro.checkpoint" in f.message for f in report.findings)


def test_r5_flags_every_anti_pattern_kind():
    report = run_rule("R5", "r5_bad.py")
    messages = " | ".join(f.message for f in report.findings)
    assert ".toarray()" in messages
    assert "spsolve" in messages
    assert "factorized() outside repro.linalg" in messages
    assert "splu() outside repro.linalg" in messages
    assert "csr_matrix() inside a loop" in messages
    assert ".tocsc() format conversion inside a loop" in messages


def test_r8_covers_all_three_checks():
    report = run_rule("R8", "r8_bad.py")
    messages = " | ".join(f.message for f in report.findings)
    assert "missing [unit: ...] docstring tags" in messages
    assert "but the parameter is declared" in messages
    assert "but the function declares [unit-return:" in messages


def test_r8_call_mismatch_names_the_callee():
    report = run_rule("R8", "r8_bad.py")
    assert any("r8_bad.resistance" in f.message for f in report.findings)


def test_r9_covers_every_sink_shape():
    report = run_rule("R9", "r9_bad.py")
    messages = " | ".join(f.message for f in report.findings)
    assert "the key of cache '_result_cache'" in messages
    assert "a hash()-based key" in messages
    assert "checkpoint state (write_checkpoint.payload)" in messages
    assert "a telemetry run event" in messages
    assert "scoring function 'score_candidate'" in messages


def test_r9_covers_every_source_tag():
    report = run_rule("R9", "r9_bad.py")
    messages = " | ".join(f.message for f in report.findings)
    for tag in (
        "wall-clock",
        "process-id",
        "object-identity",
        "unseeded-rng",
        "set-order",
    ):
        assert tag in messages


def test_r9_taint_crosses_local_call_edge():
    # cache_lookup never touches a clock itself; the taint arrives through
    # wall_clock()'s function summary.
    report = run_rule("R9", "r9_bad.py")
    finding = next(f for f in report.findings if f.line == 20)
    assert "wall-clock" in finding.message


def test_findings_are_sorted_and_deduplicated():
    report = Analyzer().run([str(FIXTURES)])
    keys = [(f.path, f.line, f.col, f.rule, f.message) for f in report.findings]
    assert keys == sorted(keys)
    assert len(keys) == len(set(keys))


def test_unknown_rule_id_rejected():
    with pytest.raises(LintError):
        Analyzer(select=["R99"])


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


class TestR6BoundaryModule:
    """R6 sanctions ``repro.checkpoint`` (and submodules) by module path."""

    BODY = (
        "import json\n"
        "def save(payload, fh):\n"
        "    json.dump(payload, fh)\n"
    )

    def _make_module(self, root, package):
        path = root
        for part in package.split("."):
            path = path / part
            path.mkdir()
            (path / "__init__.py").write_text("")
        mod = path / "mod.py"
        mod.write_text(self.BODY)
        return mod

    def test_checkpoint_package_is_sanctioned(self, tmp_path):
        mod = self._make_module(tmp_path, "repro.checkpoint")
        report = Analyzer(select=["R6"]).run([str(mod)])
        assert report.findings == []

    def test_lookalike_package_is_flagged(self, tmp_path):
        mod = self._make_module(tmp_path, "repro.checkpointing")
        report = Analyzer(select=["R6"]).run([str(mod)])
        assert len(report.findings) == 1
        assert report.findings[0].rule == "R6"


class TestR5BackendModule:
    """R5 sanctions raw factorizers only inside ``repro.linalg``."""

    BODY = (
        "from scipy.sparse.linalg import splu\n"
        "def factorize(matrix):\n"
        "    return splu(matrix)\n"
    )

    LOOP_BODY = (
        "from scipy.sparse.linalg import splu\n"
        "def solve_all(matrices, rhs):\n"
        "    out = []\n"
        "    for matrix in matrices:\n"
        "        out.append(splu(matrix).solve(rhs))\n"
        "    return out\n"
    )

    def _make_module(self, root, package, body):
        path = root
        for part in package.split("."):
            path = path / part
            path.mkdir()
            (path / "__init__.py").write_text("")
        mod = path / "mod.py"
        mod.write_text(body)
        return mod

    def test_backend_package_is_sanctioned(self, tmp_path):
        mod = self._make_module(tmp_path, "repro.linalg", self.BODY)
        report = Analyzer(select=["R5"]).run([str(mod)])
        assert report.findings == []

    def test_lookalike_package_is_flagged(self, tmp_path):
        # "repro.linalgx" must not ride on the "repro.linalg" sanction.
        mod = self._make_module(tmp_path, "repro.linalgx", self.BODY)
        report = Analyzer(select=["R5"]).run([str(mod)])
        assert len(report.findings) == 1
        assert "outside repro.linalg" in report.findings[0].message

    def test_in_loop_factorization_flagged_even_when_sanctioned(
        self, tmp_path
    ):
        mod = self._make_module(tmp_path, "repro.linalg", self.LOOP_BODY)
        report = Analyzer(select=["R5"]).run([str(mod)])
        assert len(report.findings) == 1
        assert "inside a loop" in report.findings[0].message
