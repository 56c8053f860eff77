"""R8 -- interprocedural unit inference, and the engine R1 shares.

:class:`UnitFlow` is the one unit-inference engine of the lint: a
:mod:`repro.lint.dataflow` walk whose values are physical units.  One walk
of a file yields the findings of two rules.  R1 (``units_rule``) keeps the
*mixing* checks: ``+``/``-`` arithmetic and ``<``/``<=``/``>``/``>=``
comparisons whose operand units are both known must agree.  R8 makes units
flow across function boundaries with three checks:

* **Signature coverage**: a public top-level function in a unit-scoped
  module (same scope as R1) with ``float``-annotated parameters or return
  must declare their units in its docstring -- parameter lines shaped like
  ``p_sys: ... [unit: Pa]`` and a ``[unit-return: ...]`` tag.  A
  deliberately unit-polymorphic signature uses ``[unit: any]`` /
  ``[unit-return: any]`` (e.g. ``quantize_key``, which accepts a float in
  any unit).

* **Call-site compatibility**: at every call that resolves to a function
  with declared parameter units, each argument whose unit can be inferred
  (tagged constants, parameter tags of the *enclosing* function, unit
  algebra over ``* / **``) must match the declared unit -- passing a
  thermal resistance (K/W) into a conductance parameter (W/K) is exactly
  the bug this catches, and it works across modules because the symbol
  table is project-wide.

* **Return consistency**: a function declaring ``[unit-return: X]`` whose
  return expression infers to a different unit is flagged at the return
  statement -- the tag and the code cannot both be right.

Inference never guesses: an operand, argument or return whose unit cannot
be derived is silently skipped, so untagged code stays quiet (the coverage
checks, not noise, are what drive tagging).
"""

from __future__ import annotations

import ast
from typing import Iterator, List, Optional, Tuple

from ..core import FileContext, Finding, Rule, register
from ..dataflow import ForwardDataflow, FunctionNode
from ..symbols import (
    ModuleSymbols,
    Project,
    _docstring_param_units,
    safe_parse_unit,
)
from ..units import DIMENSIONLESS, Unit, format_unit

#: Builtins that return their (single) argument's unit unchanged.
_PASSTHROUGH_CALLS = {"float", "abs", "min", "max", "sum", "round"}

#: Rule ids whose findings one :class:`UnitFlow` walk produces.
MIXING_RULE = "R1"
FLOW_RULE = "R8"


def _is_float_annotation(annotation: Optional[ast.expr]) -> bool:
    return isinstance(annotation, ast.Name) and annotation.id == "float"


class UnitFlow(ForwardDataflow[Unit]):
    """Unit-valued dataflow over one function or module body."""

    def __init__(
        self,
        ctx: FileContext,
        symbols: ModuleSymbols,
        project: Project,
        findings: List[Finding],
    ) -> None:
        super().__init__()
        self.ctx = ctx
        self.symbols = symbols
        self.project = project
        self.findings = findings
        #: Whether this walk is a function body (not the module body).
        self.in_function = False
        #: Declared return unit of the function being walked, if any.
        self.declared_return: Optional[Unit] = None

    def flag(self, rule: str, node: ast.AST, message: str) -> None:
        """Record one finding of ``rule`` anchored at ``node``."""
        self.findings.append(
            Finding(
                rule=rule,
                path=self.ctx.path,
                line=getattr(node, "lineno", 1),
                col=getattr(node, "col_offset", 0),
                message=message,
            )
        )

    # -- function entry --------------------------------------------------

    def seed_function(self, node: FunctionNode) -> None:
        """Bind declared parameter units (tags win over default values)."""
        self.in_function = True
        args = node.args
        positional = args.posonlyargs + args.args
        if args.defaults:
            for arg, default in zip(
                positional[-len(args.defaults):], args.defaults
            ):
                self.env[arg.arg] = self.eval(default)
        for arg, kw_default in zip(args.kwonlyargs, args.kw_defaults):
            if kw_default is not None:
                self.env[arg.arg] = self.eval(kw_default)
        for param, unit in _docstring_param_units(node).items():
            if unit is not None:
                self.env[param] = unit
        tag = FileContext.unit_return_tag(node)
        if tag is not None and tag != "any":
            self.declared_return = safe_parse_unit(tag)

    def enter_function(self, node: FunctionNode) -> None:
        sub = UnitFlow(self.ctx, self.symbols, self.project, self.findings)
        sub.seed_function(node)
        sub.walk(node.body)

    def on_assign(
        self, name: str, value: Optional[Unit], node: ast.stmt
    ) -> Optional[Unit]:
        # A module constant's [unit: ...] tag wins over its literal's
        # (dimensionless) unit -- that is the tag's whole point.
        if not self.in_function:
            tagged = self.symbols.constant_units.get(name)
            if tagged is not None:
                return tagged
        return value

    # -- value hooks -------------------------------------------------------

    def eval_constant(self, node: ast.Constant) -> Optional[Unit]:
        if isinstance(node.value, bool) or not isinstance(
            node.value, (int, float)
        ):
            return None
        # Zero is the one scalar valid in any unit; leave it unknown.
        if node.value == 0:
            return None
        return DIMENSIONLESS

    def eval_name(self, node: ast.Name) -> Optional[Unit]:
        resolved = self.project.resolve_name(self.symbols, node.id)
        if resolved is not None:
            return self.project.constant_unit(*resolved)
        return None

    def eval_attribute(
        self, node: ast.Attribute, value: Optional[Unit]
    ) -> Optional[Unit]:
        # ``module.CONSTANT`` across an ``import module`` binding.
        if isinstance(node.value, ast.Name):
            module = self.symbols.imported_modules.get(node.value.id)
            if module is not None:
                unit = self.project.constant_unit(module, node.attr)
                if unit is not None:
                    return unit
        return self.project.attribute_unit(node.attr)

    def eval_call(
        self, node: ast.Call, args: List[Optional[Unit]]
    ) -> Optional[Unit]:
        func = node.func
        if (
            isinstance(func, ast.Name)
            and func.id in _PASSTHROUGH_CALLS
            and len(node.args) == 1
            and not node.keywords
        ):
            return args[0] if args else None
        resolved = self.project.resolve_call(self.symbols, node)
        if resolved is None:
            return None
        self._check_call_args(node, args, resolved)
        module, name = resolved
        symbols = self.project.modules.get(module)
        if symbols is not None and name in symbols.polymorphic_returns:
            # A polymorphic function's return unit is its argument's when
            # there is exactly one (the quantize_key shape).
            if len(node.args) == 1 and not node.keywords:
                return args[0]
            return None
        return self.project.return_unit(module, name)

    def eval_binop(
        self, node: ast.BinOp, left: Optional[Unit], right: Optional[Unit]
    ) -> Optional[Unit]:
        if isinstance(node.op, (ast.Add, ast.Sub)):
            self._check_mix(node, left, right, "arithmetic")
            if left is not None and left == right:
                return left
            return None
        if isinstance(node.op, ast.Mult):
            if left is not None and right is not None:
                return left * right
            return None
        if isinstance(node.op, ast.Div):
            if left is not None and right is not None:
                return left / right
            return None
        if isinstance(node.op, ast.Pow):
            exponent = node.right
            if (
                left is not None
                and isinstance(exponent, ast.Constant)
                and isinstance(exponent.value, int)
                and not isinstance(exponent.value, bool)
            ):
                return left ** exponent.value
            if left is not None and left.dimensionless:
                return DIMENSIONLESS
            return None
        return None

    def eval_ifexp(self, node: ast.IfExp) -> Optional[Unit]:
        a, b = self.eval(node.body), self.eval(node.orelse)
        return a if a == b else None

    def eval(self, node: ast.expr) -> Optional[Unit]:
        if isinstance(node, ast.Lambda):
            # The engine leaves lambda bodies alone; mixing inside one is
            # still mixing.  Its parameters shadow outer names as unknowns.
            args = node.args
            for default in args.defaults + args.kw_defaults:
                if default is not None:
                    self.eval(default)
            saved = dict(self.env)
            for arg in args.posonlyargs + args.args + args.kwonlyargs:
                self.env[arg.arg] = None
            self.eval(node.body)
            self.env = saved
            return None
        return super().eval(node)

    # -- checks ------------------------------------------------------------

    def on_compare(
        self, node: ast.Compare, values: List[Optional[Unit]]
    ) -> None:
        operands = [node.left] + list(node.comparators)
        for op, right, left_unit, right_unit in zip(
            node.ops, operands[1:], values, values[1:]
        ):
            if isinstance(op, (ast.Lt, ast.LtE, ast.Gt, ast.GtE)):
                self._check_mix(right, left_unit, right_unit, "comparison")

    def _check_mix(
        self,
        node: ast.AST,
        left: Optional[Unit],
        right: Optional[Unit],
        kind: str,
    ) -> None:
        if left is None or right is None or left == right:
            return
        self.flag(
            MIXING_RULE,
            node,
            f"incompatible units in {kind}: "
            f"[{format_unit(left)}] vs [{format_unit(right)}]",
        )

    def _check_call_args(
        self,
        node: ast.Call,
        args: List[Optional[Unit]],
        resolved: Tuple[str, str],
    ) -> None:
        module, name = resolved
        declared = self.project.param_units(module, name)
        if not declared:
            return
        found = self.project.function_def(module, name)
        if found is None:
            return
        _, func = found
        params = [a.arg for a in func.args.posonlyargs + func.args.args]
        pairs: List[Tuple[str, Optional[Unit], ast.expr]] = []
        for index, arg_node in enumerate(node.args):
            if isinstance(arg_node, ast.Starred) or index >= len(params):
                break
            pairs.append((params[index], args[index], arg_node))
        for keyword in node.keywords:
            if keyword.arg is not None:
                pairs.append(
                    (keyword.arg, self.eval(keyword.value), keyword.value)
                )
        for param, actual, arg_node in pairs:
            if param not in declared or actual is None:
                continue
            expected = declared[param]
            if expected is None or expected == actual:
                continue
            self.flag(
                FLOW_RULE,
                arg_node,
                f"argument {param!r} to {module}.{name} has unit "
                f"[{format_unit(actual)}] but the parameter is declared "
                f"[{format_unit(expected)}]",
            )

    def on_return(self, node: ast.Return, value: Optional[Unit]) -> None:
        if (
            self.declared_return is not None
            and value is not None
            and value != self.declared_return
        ):
            self.flag(
                FLOW_RULE,
                node,
                f"return value infers to [{format_unit(value)}] but the "
                f"function declares [unit-return: "
                f"{format_unit(self.declared_return)}]",
            )


def unit_findings(
    ctx: FileContext, project: Project, rule: str
) -> List[Finding]:
    """The findings of ``rule`` from one :class:`UnitFlow` walk of a file."""
    findings: List[Finding] = []
    UnitFlow(ctx, project.modules[ctx.module], project, findings).walk(
        ctx.tree.body
    )
    return [finding for finding in findings if finding.rule == rule]


@register
class UnitFlowRule(Rule):
    """R8: whole-program unit inference across call/return edges."""

    id = FLOW_RULE
    name = "unit-flow"
    description = (
        "float signatures in unit-scoped modules carry docstring unit tags; "
        "call arguments and returns must match the declared units"
    )

    def check(self, ctx: FileContext, project: Project) -> Iterator[Finding]:
        symbols = project.modules[ctx.module]
        if project.in_unit_scope(ctx):
            yield from self._check_coverage(ctx, symbols)
        yield from unit_findings(ctx, project, self.id)

    def _check_coverage(
        self, ctx: FileContext, symbols: ModuleSymbols
    ) -> Iterator[Finding]:
        for name, node in symbols.functions.items():
            if name.startswith("_"):
                continue
            declared = symbols.param_units.get(name, {})
            args = node.args
            missing = [
                a.arg
                for a in args.posonlyargs + args.args + args.kwonlyargs
                if _is_float_annotation(a.annotation) and a.arg not in declared
            ]
            needs_return = (
                _is_float_annotation(node.returns)
                and name not in symbols.return_units
                and name not in symbols.polymorphic_returns
            )
            if not missing and not needs_return:
                continue
            parts = []
            if missing:
                parts.append(
                    "[unit: ...] docstring tags for parameter(s) "
                    + ", ".join(missing)
                )
            if needs_return:
                parts.append("a [unit-return: ...] docstring tag")
            yield self.finding(
                ctx,
                node,
                f"public function {name} in a unit-scoped module is missing "
                + " and ".join(parts)
                + " (use [unit: any] for deliberately polymorphic floats)",
            )
