"""Domain-aware static analysis for the repro codebase.

``python -m repro.lint [paths]`` runs five AST-based rules that encode the
invariants the physics, cache-key, worker-pool and error layers depend on:

====  ===================  ==================================================
R1    units                ``[unit: ...]`` tags on physics constants; no
                           adding/comparing incompatible units
R2    cache-keys           floats only key caches through ``quantize_key``
R3    pool-safety          worker-imported modules keep module state
                           private, immutable, or behind lifecycle functions
R4    error-discipline     ``ReproError`` subclasses everywhere; no broad
                           excepts outside ``repro.errors.crash_boundary``
R8    unit-flow            unit tags on float signatures; call arguments and
                           returns match the declared units
====  ===================  ==================================================

R1 and R8 share one unit-inference engine
(:class:`~repro.lint.rules.unit_flow.UnitFlow`).  R5 (sparse patterns), R6
(atomic persistence), R7 (telemetry names) and R9 (determinism taint) are
retired; the guards that replaced them are listed in
``docs/STATIC_ANALYSIS.md`` with the conventions each rule enforces.  Any
finding fails the run.  The analyzer is stdlib-only and safe to run
anywhere, including CI.
"""

from __future__ import annotations

from .core import (
    Analyzer,
    FileContext,
    Finding,
    LintReport,
    Rule,
    all_rules,
    collect_files,
    register,
)
from .units import DIMENSIONLESS, Unit, compatible, format_unit, parse_unit

__all__ = [
    "Analyzer",
    "FileContext",
    "Finding",
    "LintReport",
    "Rule",
    "all_rules",
    "collect_files",
    "register",
    "Unit",
    "DIMENSIONLESS",
    "parse_unit",
    "format_unit",
    "compatible",
]
