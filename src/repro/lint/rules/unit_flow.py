"""R1 and R8 -- physics units, on the lint's one unit-inference engine.

:class:`UnitFlow` walks one module or function body in statement order,
carrying an environment of ``local name -> unit``.  One walk of a file
yields the findings of both unit rules.

R1 (``units``) has two checks:

* **Tag coverage**: every module-level ``ALL_CAPS`` numeric constant in a
  unit-scoped module (``repro.constants``, ``repro.materials``,
  ``repro.flow``, ``repro.thermal``, ``repro.cooling``, or any module whose
  docstring declares ``repro-lint-scope: units``) must carry a
  machine-readable ``[unit: ...]`` tag in its ``#:`` comment (``[unit: 1]``
  for dimensionless values).
* **Mixing**: ``+``/``-`` arithmetic and ``<``/``<=``/``>``/``>=``
  comparisons whose operand units are both known must agree.

R8 (``unit-flow``) makes units flow across function boundaries, with three
checks:

* **Signature coverage**: a public top-level function in a unit-scoped
  module (same scope as R1) with ``float``-annotated parameters or return
  must declare their units in its docstring -- parameter lines shaped like
  ``p_sys: ... [unit: Pa]`` and a ``[unit-return: ...]`` tag.  A
  deliberately unit-polymorphic signature uses ``[unit: any]`` /
  ``[unit-return: any]`` (e.g. ``quantize_key``, which accepts a float in
  any unit).
* **Call-site compatibility**: at every call that resolves to a function
  with declared parameter units, each argument whose unit can be inferred
  must match the declared unit -- passing a thermal resistance (K/W) into
  a conductance parameter (W/K) is exactly the bug this catches, and it
  works across modules because the symbol table is project-wide.
* **Return consistency**: a function declaring ``[unit-return: X]`` whose
  return expression infers to a different unit is flagged at the return
  statement -- the tag and the code cannot both be right.

Units are inferred from tagged constants (across imports, also as
``module.CONSTANT``), ``[unit-return: ...]`` function tags, docstring
parameter tags, ``[unit: ...]`` attribute tags in class docstrings, local
assignments, parameter defaults, unit-preserving builtins and the
``* / **`` unit algebra.  Everything else is unknown (``None``) and never
flagged: inference never guesses, so untagged code stays quiet (the
coverage checks, not noise, are what drive tagging).

The walk is single-pass and path-insensitive.  Branches are walked on
copies of the environment and joined back, so a name bound to different
units on two paths becomes unknown; loop bodies are walked once and joined
against the pre-loop environment.  Every expression of every statement is
evaluated, so the checks fire inside arguments, conditions, comprehensions
and lambdas, not just on the right-hand side of assignments.
"""

from __future__ import annotations

import ast
import re
from typing import Dict, Iterator, List, Optional, Tuple, Union

from ..core import FileContext, Finding, Rule, register
from ..symbols import (
    ModuleSymbols,
    Project,
    _docstring_param_units,
    safe_parse_unit,
)
from ..units import DIMENSIONLESS, Unit, format_unit

#: Builtins that return their (single) argument's unit unchanged.
_PASSTHROUGH_CALLS = {"float", "abs", "min", "max", "sum", "round"}

#: Module-level constant names held to R1's tag coverage.
_CONST_NAME_RE = re.compile(r"^_?[A-Z][A-Z0-9_]*$")

#: Rule ids whose findings one :class:`UnitFlow` walk produces.
MIXING_RULE = "R1"
FLOW_RULE = "R8"

#: A ``def`` or ``async def`` node.
FunctionNode = Union[ast.FunctionDef, ast.AsyncFunctionDef]


def _is_float_annotation(annotation: Optional[ast.expr]) -> bool:
    return isinstance(annotation, ast.Name) and annotation.id == "float"


def _is_numeric_literal(node: ast.expr) -> bool:
    if isinstance(node, ast.UnaryOp) and isinstance(
        node.op, (ast.USub, ast.UAdd)
    ):
        return _is_numeric_literal(node.operand)
    return isinstance(node, ast.Constant) and isinstance(
        node.value, (int, float)
    ) and not isinstance(node.value, bool)


def _join(a: Optional[Unit], b: Optional[Unit]) -> Optional[Unit]:
    """Merge two paths' units: kept only when both agree."""
    return a if a == b else None


class UnitFlow:
    """Unit-valued forward walk over one function or module body."""

    def __init__(
        self,
        ctx: FileContext,
        symbols: ModuleSymbols,
        project: Project,
        findings: List[Finding],
    ) -> None:
        self.ctx = ctx
        self.symbols = symbols
        self.project = project
        self.findings = findings
        #: Local name -> unit (``None``: unknown).
        self.env: Dict[str, Optional[Unit]] = {}
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

    def _walk_function(self, node: FunctionNode) -> None:
        sub = UnitFlow(self.ctx, self.symbols, self.project, self.findings)
        sub.seed_function(node)
        sub.walk(node.body)

    # -- expressions -----------------------------------------------------

    def eval(self, node: ast.expr) -> Optional[Unit]:
        """The unit of one expression, checking every sub-expression."""
        if isinstance(node, ast.Constant):
            if isinstance(node.value, bool) or not isinstance(
                node.value, (int, float)
            ):
                return None
            # Zero is the one scalar valid in any unit; leave it unknown.
            return None if node.value == 0 else DIMENSIONLESS
        if isinstance(node, ast.Name):
            if isinstance(node.ctx, ast.Load) and node.id in self.env:
                return self.env[node.id]
            resolved = self.project.resolve_name(self.symbols, node.id)
            if resolved is not None:
                return self.project.constant_unit(*resolved)
            return None
        if isinstance(node, ast.Attribute):
            self.eval(node.value)
            return self._attribute(node)
        if isinstance(node, ast.Call):
            args = [self.eval(arg) for arg in node.args]
            for keyword in node.keywords:
                self.eval(keyword.value)
            if not isinstance(node.func, (ast.Name, ast.Attribute)):
                self.eval(node.func)
            elif isinstance(node.func, ast.Attribute):
                self.eval(node.func.value)
            return self._call(node, args)
        if isinstance(node, ast.BinOp):
            left = self.eval(node.left)
            right = self.eval(node.right)
            return self._binop(node, left, right)
        if isinstance(node, ast.UnaryOp):
            operand = self.eval(node.operand)
            if isinstance(node.op, (ast.UAdd, ast.USub)):
                return operand
            return None
        if isinstance(node, ast.BoolOp):
            values = [self.eval(v) for v in node.values]
            merged = values[0]
            for value in values[1:]:
                merged = _join(merged, value)
            return merged
        if isinstance(node, ast.Compare):
            values = [self.eval(node.left)]
            values.extend(self.eval(c) for c in node.comparators)
            self._check_compare(node, values)
            return None
        if isinstance(node, ast.IfExp):
            self.eval(node.test)
            return _join(self.eval(node.body), self.eval(node.orelse))
        if isinstance(
            node, (ast.ListComp, ast.SetComp, ast.GeneratorExp, ast.DictComp)
        ):
            self._eval_comprehension(node)
            return None
        if isinstance(node, ast.Starred):
            return self.eval(node.value)
        if isinstance(node, ast.NamedExpr):
            value = self.eval(node.value)
            if isinstance(node.target, ast.Name):
                self.env[node.target.id] = value
            return value
        if isinstance(node, ast.Lambda):
            # Mixing inside a lambda is still mixing.  Its parameters
            # shadow outer names as unknowns.
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
        # Subscripts, displays, f-strings, await, yield, slices...: check
        # the children; the value is unknown.
        for child in ast.iter_child_nodes(node):
            if isinstance(child, ast.expr):
                self.eval(child)
        return None

    def _eval_comprehension(self, node: ast.expr) -> None:
        saved = dict(self.env)
        for generator in node.generators:  # type: ignore[attr-defined]
            self.eval(generator.iter)
            self._bind_target(generator.target, None)
            for condition in generator.ifs:
                self.eval(condition)
        if isinstance(node, ast.DictComp):
            self.eval(node.key)
            self.eval(node.value)
        else:
            self.eval(node.elt)  # type: ignore[attr-defined]
        self.env = saved

    def _attribute(self, node: ast.Attribute) -> Optional[Unit]:
        # ``module.CONSTANT`` across an ``import module`` binding.
        if isinstance(node.value, ast.Name):
            module = self.symbols.imported_modules.get(node.value.id)
            if module is not None:
                unit = self.project.constant_unit(module, node.attr)
                if unit is not None:
                    return unit
        return self.project.attribute_unit(node.attr)

    def _call(
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

    def _binop(
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

    # -- statements ------------------------------------------------------

    def walk(self, body: List[ast.stmt]) -> None:
        """Walk a statement list in order, threading the environment."""
        for stmt in body:
            self._walk_stmt(stmt)

    def _walk_stmt(self, stmt: ast.stmt) -> None:
        if isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef)):
            self._walk_function(stmt)
            return
        if isinstance(stmt, ast.ClassDef):
            self.walk(stmt.body)
            return
        if isinstance(stmt, ast.Assign):
            value = self.eval(stmt.value)
            for target in stmt.targets:
                self._bind_target(target, value)
            return
        if isinstance(stmt, ast.AnnAssign):
            if stmt.value is not None:
                value = self.eval(stmt.value)
                self._bind_target(stmt.target, value)
            return
        if isinstance(stmt, ast.AugAssign):
            value = self.eval(stmt.value)
            if isinstance(stmt.target, ast.Name):
                current = self.env.get(stmt.target.id)
                synthetic = ast.BinOp(
                    left=stmt.target, op=stmt.op, right=stmt.value
                )
                ast.copy_location(synthetic, stmt)
                self._bind_target(
                    stmt.target, self._binop(synthetic, current, value)
                )
            else:
                self.eval(stmt.target)
            return
        if isinstance(stmt, ast.Return):
            value = self.eval(stmt.value) if stmt.value is not None else None
            self._check_return(stmt, value)
            return
        if isinstance(stmt, ast.If):
            self.eval(stmt.test)
            self._walk_branches([stmt.body, stmt.orelse])
            return
        if isinstance(stmt, (ast.For, ast.AsyncFor)):
            self.eval(stmt.iter)
            before = dict(self.env)
            self._bind_target(stmt.target, None)
            self.walk(stmt.body)
            self._join_env(before)
            self.walk(stmt.orelse)
            return
        if isinstance(stmt, ast.While):
            self.eval(stmt.test)
            before = dict(self.env)
            self.walk(stmt.body)
            self._join_env(before)
            self.walk(stmt.orelse)
            return
        if isinstance(stmt, (ast.With, ast.AsyncWith)):
            for item in stmt.items:
                value = self.eval(item.context_expr)
                if item.optional_vars is not None:
                    self._bind_target(item.optional_vars, value)
            self.walk(stmt.body)
            return
        if isinstance(stmt, ast.Try):
            before = dict(self.env)
            self.walk(stmt.body)
            for handler in stmt.handlers:
                if handler.type is not None:
                    self.eval(handler.type)
                handler_env = dict(self.env)
                self.env = dict(before)
                self.walk(handler.body)
                self._join_env(handler_env)
            self.walk(stmt.orelse)
            self.walk(stmt.finalbody)
            return
        if isinstance(stmt, getattr(ast, "Match", ())):
            self.eval(stmt.subject)
            self._walk_branches([case.body for case in stmt.cases])
            return
        # Expression statements, assert/raise/del, imports and friends:
        # check every expression, walk any nested statement.
        for child in ast.iter_child_nodes(stmt):
            if isinstance(child, ast.expr):
                self.eval(child)
            elif isinstance(child, ast.stmt):
                self._walk_stmt(child)

    def _walk_branches(self, branches: List[List[ast.stmt]]) -> None:
        before = dict(self.env)
        merged: Optional[Dict[str, Optional[Unit]]] = None
        for branch in branches:
            self.env = dict(before)
            self.walk(branch)
            if merged is None:
                merged = dict(self.env)
            else:
                keys = set(merged) | set(self.env)
                merged = {
                    key: _join(merged.get(key), self.env.get(key))
                    for key in keys
                }
        self.env = merged if merged is not None else before

    def _join_env(self, other: Dict[str, Optional[Unit]]) -> None:
        keys = set(self.env) | set(other)
        self.env = {
            key: _join(self.env.get(key), other.get(key)) for key in keys
        }

    def _bind_target(self, target: ast.expr, value: Optional[Unit]) -> None:
        if isinstance(target, ast.Name):
            # A module constant's [unit: ...] tag wins over its literal's
            # (dimensionless) unit -- that is the tag's whole point.
            if not self.in_function:
                tagged = self.symbols.constant_units.get(target.id)
                if tagged is not None:
                    value = tagged
            self.env[target.id] = value
        elif isinstance(target, (ast.Tuple, ast.List)):
            for element in target.elts:
                self._bind_target(element, None)
        elif isinstance(target, (ast.Attribute, ast.Subscript)):
            self.eval(target)
        elif isinstance(target, ast.Starred):
            self._bind_target(target.value, None)

    # -- checks ------------------------------------------------------------

    def _check_compare(
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

    def _check_return(self, node: ast.Return, value: Optional[Unit]) -> None:
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
            targets: List[ast.expr] = []
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
