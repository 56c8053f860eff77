"""R1 -- physics-unit consistency.

Two checks:

* **Tag coverage**: every module-level ``ALL_CAPS`` numeric constant in a
  unit-scoped module (``repro.constants``, ``repro.materials``, ``repro.flow``,
  ``repro.thermal``, ``repro.cooling``, or any module whose docstring declares
  ``repro-lint-scope: units``) must carry a machine-readable ``[unit: ...]``
  tag in its ``#:`` comment (``[unit: 1]`` for dimensionless values).

* **Mixing**: additions, subtractions and order comparisons whose operand
  units can both be inferred must agree dimensionally.  Inference is R8's
  :class:`~repro.lint.rules.unit_flow.UnitFlow` engine: tagged constants
  (across imports, also as ``module.CONSTANT``), ``[unit-return: ...]``
  function tags, docstring parameter tags, ``[unit: ...]`` attribute tags in
  class docstrings, local assignments, parameter defaults, unit-preserving
  builtins, and the ``* / **`` unit algebra; everything else is *unknown*
  and never flagged, keeping the checker quiet on untagged code.
"""

from __future__ import annotations

import ast
import re
from typing import Iterator, Optional

from ..core import FileContext, Finding, Rule, register
from ..symbols import ModuleSymbols, Project
from .unit_flow import MIXING_RULE, unit_findings

_CONST_NAME_RE = re.compile(r"^_?[A-Z][A-Z0-9_]*$")


def _is_numeric_literal(node: ast.expr) -> bool:
    if isinstance(node, ast.UnaryOp) and isinstance(
        node.op, (ast.USub, ast.UAdd)
    ):
        return _is_numeric_literal(node.operand)
    return isinstance(node, ast.Constant) and isinstance(
        node.value, (int, float)
    ) and not isinstance(node.value, bool)


@register
class UnitsRule(Rule):
    """R1: unit-tag coverage on constants plus dimensional consistency."""

    id = MIXING_RULE
    name = "units"
    description = (
        "module constants in physics modules must carry [unit: ...] tags; "
        "+, - and comparisons must not mix incompatible units"
    )

    def check(self, ctx: FileContext, project: Project) -> Iterator[Finding]:
        if project.in_unit_scope(ctx):
            yield from self._check_tags(ctx, project.modules[ctx.module])
        yield from unit_findings(ctx, project, self.id)

    def _check_tags(
        self, ctx: FileContext, symbols: ModuleSymbols
    ) -> Iterator[Finding]:
        for node in ctx.tree.body:
            targets: list = []
            value: Optional[ast.expr] = None
            if isinstance(node, ast.Assign):
                targets, value = node.targets, node.value
            elif isinstance(node, ast.AnnAssign) and node.value is not None:
                targets, value = [node.target], node.value
            if value is None or not _is_numeric_literal(value):
                continue
            for target in targets:
                if not isinstance(target, ast.Name):
                    continue
                if not _CONST_NAME_RE.match(target.id):
                    continue
                if target.id in symbols.constant_units:
                    continue
                yield self.finding(
                    ctx,
                    node,
                    f"constant {target.id} in a unit-scoped module has no "
                    f"[unit: ...] tag (use [unit: 1] for dimensionless)",
                )
