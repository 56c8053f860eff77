"""Reusable forward-dataflow framework for the whole-program lint rules.

:class:`ForwardDataflow` walks one function (or module) body in statement
order carrying an environment of ``local name -> abstract value``.  The
*meaning* of a value is supplied by the subclass -- a physical unit for the
R8 unit-inference rule, a taint set for the R9 determinism rule -- through
a small set of evaluation hooks; the base class owns everything shape-
related:

* statement traversal (assignments, ``if``/``for``/``while``/``try``/
  ``with``, returns, nested defs) with per-branch environment copies that
  are *joined* back together, so a name bound to different values on two
  paths becomes unknown rather than wrongly certain;
* loop bodies walked once and joined against the pre-loop environment
  (a second iteration can only make values less precise, and ``join``
  already accounts for that);
* exhaustive expression visiting: every expression in every statement is
  evaluated, so subclass hooks fire for calls and subscripts buried in
  arguments, conditions, and comprehensions, not just on the right-hand
  side of assignments.

``None`` is the universal *unknown* ("top") value: inference never guesses.
The default :meth:`join` keeps a value only when both branches agree.

The framework is deliberately path-insensitive and runs in one pass per
function -- the precision sweet spot for a lint (no fixpoint iteration,
no false certainty), while still being honest about control flow.
"""

from __future__ import annotations

import ast
from typing import Any, Dict, Generic, List, Optional, TypeVar, Union

V = TypeVar("V")

#: Environment type: local name -> abstract value (``None`` = unknown).
Env = Dict[str, Optional[Any]]

#: A ``def`` or ``async def`` node.
FunctionNode = Union[ast.FunctionDef, ast.AsyncFunctionDef]


class ForwardDataflow(Generic[V]):
    """Single-pass forward dataflow over one body, parameterized by hooks."""

    def __init__(self) -> None:
        self.env: Dict[str, Optional[V]] = {}

    # -- subclass hooks: values ------------------------------------------

    def join(self, a: Optional[V], b: Optional[V]) -> Optional[V]:
        """Merge two branch values; default keeps only agreement."""
        return a if a == b else None

    def eval_constant(self, node: ast.Constant) -> Optional[V]:
        """Value of a literal constant."""
        return None

    def eval_name(self, node: ast.Name) -> Optional[V]:
        """Value of a name not bound in the local environment."""
        return None

    def eval_attribute(
        self, node: ast.Attribute, value: Optional[V]
    ) -> Optional[V]:
        """Value of ``base.attr`` given the base's value."""
        return None

    def eval_call(
        self, node: ast.Call, args: List[Optional[V]]
    ) -> Optional[V]:
        """Value of a call given its positional-argument values.

        Keyword-argument values are evaluated by the engine before this
        hook runs (so source/sink hooks fire inside them); subclasses that
        need them can re-evaluate via :meth:`eval`, which is cheap.
        """
        return None

    def eval_binop(
        self, node: ast.BinOp, left: Optional[V], right: Optional[V]
    ) -> Optional[V]:
        """Value of a binary operation given operand values."""
        return None

    def eval_unaryop(
        self, node: ast.UnaryOp, operand: Optional[V]
    ) -> Optional[V]:
        """Value of a unary operation; default passes +x/-x through."""
        if isinstance(node.op, (ast.UAdd, ast.USub)):
            return operand
        return None

    def eval_subscript(
        self, node: ast.Subscript, value: Optional[V], key: Optional[V]
    ) -> Optional[V]:
        """Value of ``base[key]`` given base and key values."""
        return None

    def eval_display(
        self, node: ast.expr, elements: List[Optional[V]]
    ) -> Optional[V]:
        """Value of a list/tuple/set/dict display given element values."""
        return None

    def eval_comprehension(
        self, node: ast.expr, element: Optional[V]
    ) -> Optional[V]:
        """Value of a comprehension given its element expression's value."""
        return None

    def eval_ifexp(self, node: ast.IfExp) -> Optional[V]:
        """Value of a conditional expression (branches joined)."""
        return self.join(self.eval(node.body), self.eval(node.orelse))

    # -- subclass hooks: events ------------------------------------------

    def iter_element(
        self, node: ast.expr, iterable: Optional[V]
    ) -> Optional[V]:
        """Value bound to a loop target iterating over ``iterable``."""
        return None

    def on_assign(
        self, name: str, value: Optional[V], node: ast.stmt
    ) -> Optional[V]:
        """Filter the value bound by an assignment (default: unchanged)."""
        return value

    def on_return(self, node: ast.Return, value: Optional[V]) -> None:
        """A ``return`` statement was reached with the given value."""

    def on_compare(self, node: ast.Compare, values: List[Optional[V]]) -> None:
        """A comparison was evaluated (operand values in order)."""

    def enter_function(self, node: FunctionNode) -> None:
        """A nested ``def`` or ``async def`` was encountered."""

    # -- engine: expressions ---------------------------------------------

    def eval(self, node: ast.expr) -> Optional[V]:
        """Evaluate one expression, firing hooks on every sub-expression."""
        if isinstance(node, ast.Constant):
            return self.eval_constant(node)
        if isinstance(node, ast.Name):
            if isinstance(node.ctx, ast.Load) and node.id in self.env:
                return self.env[node.id]
            return self.eval_name(node)
        if isinstance(node, ast.Attribute):
            base = self.eval(node.value)
            return self.eval_attribute(node, base)
        if isinstance(node, ast.Call):
            args = [self.eval(arg) for arg in node.args]
            for keyword in node.keywords:
                self.eval(keyword.value)
            if not isinstance(node.func, (ast.Name, ast.Attribute)):
                self.eval(node.func)
            elif isinstance(node.func, ast.Attribute):
                self.eval(node.func.value)
            return self.eval_call(node, args)
        if isinstance(node, ast.BinOp):
            left = self.eval(node.left)
            right = self.eval(node.right)
            return self.eval_binop(node, left, right)
        if isinstance(node, ast.UnaryOp):
            return self.eval_unaryop(node, self.eval(node.operand))
        if isinstance(node, ast.BoolOp):
            values = [self.eval(v) for v in node.values]
            merged = values[0]
            for value in values[1:]:
                merged = self.join(merged, value)
            return merged
        if isinstance(node, ast.Compare):
            values = [self.eval(node.left)]
            values.extend(self.eval(c) for c in node.comparators)
            self.on_compare(node, values)
            return None
        if isinstance(node, ast.Subscript):
            base = self.eval(node.value)
            key = self.eval(node.slice)
            return self.eval_subscript(node, base, key)
        if isinstance(node, ast.IfExp):
            self.eval(node.test)
            return self.eval_ifexp(node)
        if isinstance(node, (ast.List, ast.Tuple, ast.Set)):
            elements = [self.eval(e) for e in node.elts]
            return self.eval_display(node, elements)
        if isinstance(node, ast.Dict):
            elements = []
            for key, value in zip(node.keys, node.values):
                if key is not None:
                    elements.append(self.eval(key))
                elements.append(self.eval(value))
            return self.eval_display(node, elements)
        if isinstance(
            node, (ast.ListComp, ast.SetComp, ast.GeneratorExp, ast.DictComp)
        ):
            return self._eval_comprehension(node)
        if isinstance(node, ast.Starred):
            return self.eval(node.value)
        if isinstance(node, ast.JoinedStr):
            for value in node.values:
                if isinstance(value, ast.FormattedValue):
                    self.eval(value.value)
            return None
        if isinstance(node, ast.NamedExpr):
            value = self.eval(node.value)
            if isinstance(node.target, ast.Name):
                self._bind(node.target.id, value)
            return value
        if isinstance(node, ast.Lambda):
            return None
        # Anything else (await, yield, slices...): evaluate children for
        # hook coverage, yield unknown.
        for child in ast.iter_child_nodes(node):
            if isinstance(child, ast.expr):
                self.eval(child)
        return None

    def _eval_comprehension(self, node: ast.expr) -> Optional[V]:
        saved = dict(self.env)
        for generator in node.generators:  # type: ignore[attr-defined]
            iterable = self.eval(generator.iter)
            element = self.iter_element(generator.iter, iterable)
            self._bind_target(generator.target, element, node)
            for condition in generator.ifs:
                self.eval(condition)
        if isinstance(node, ast.DictComp):
            self.eval(node.key)
            element = self.eval(node.value)
        else:
            element = self.eval(node.elt)  # type: ignore[attr-defined]
        self.env = saved
        return self.eval_comprehension(node, element)

    # -- engine: statements ----------------------------------------------

    def walk(self, body: List[ast.stmt]) -> None:
        """Walk a statement list in order, threading the environment."""
        for stmt in body:
            self._walk_stmt(stmt)

    def _walk_stmt(self, stmt: ast.stmt) -> None:
        if isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef)):
            self.enter_function(stmt)
            return
        if isinstance(stmt, ast.ClassDef):
            for inner in stmt.body:
                self._walk_stmt(inner)
            return
        if isinstance(stmt, ast.Assign):
            value = self.eval(stmt.value)
            for target in stmt.targets:
                self._bind_target(target, value, stmt)
            return
        if isinstance(stmt, ast.AnnAssign):
            if stmt.value is not None:
                value = self.eval(stmt.value)
                self._bind_target(stmt.target, value, stmt)
            return
        if isinstance(stmt, ast.AugAssign):
            value = self.eval(stmt.value)
            if isinstance(stmt.target, ast.Name):
                current = self.env.get(stmt.target.id)
                synthetic = ast.BinOp(
                    left=stmt.target, op=stmt.op, right=stmt.value
                )
                ast.copy_location(synthetic, stmt)
                self._bind(
                    stmt.target.id,
                    self.on_assign(
                        stmt.target.id,
                        self.eval_binop(synthetic, current, value),
                        stmt,
                    ),
                )
            else:
                self.eval(stmt.target)
            return
        if isinstance(stmt, ast.Return):
            value = self.eval(stmt.value) if stmt.value is not None else None
            self.on_return(stmt, value)
            return
        if isinstance(stmt, ast.If):
            self.eval(stmt.test)
            self._walk_branches([stmt.body, stmt.orelse])
            return
        if isinstance(stmt, (ast.For, ast.AsyncFor)):
            iterable = self.eval(stmt.iter)
            element = self.iter_element(stmt.iter, iterable)
            before = dict(self.env)
            self._bind_target(stmt.target, element, stmt)
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
                    self._bind_target(item.optional_vars, value, stmt)
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
        if isinstance(stmt, (ast.Expr, ast.Assert, ast.Raise, ast.Delete)):
            for child in ast.iter_child_nodes(stmt):
                if isinstance(child, ast.expr):
                    self.eval(child)
            return
        if isinstance(stmt, getattr(ast, "Match", ())):
            self.eval(stmt.subject)
            self._walk_branches([case.body for case in stmt.cases])
            return
        # Import/Global/Pass/Break/Continue and friends: nothing to evaluate,
        # but nested bodies (match statements on newer interpreters) still
        # need walking.
        for child in ast.iter_child_nodes(stmt):
            if isinstance(child, ast.expr):
                self.eval(child)
            elif isinstance(child, ast.stmt):
                self._walk_stmt(child)

    def _walk_branches(self, branches: List[List[ast.stmt]]) -> None:
        before = dict(self.env)
        merged: Optional[Dict[str, Optional[V]]] = None
        for branch in branches:
            self.env = dict(before)
            self.walk(branch)
            if merged is None:
                merged = dict(self.env)
            else:
                keys = set(merged) | set(self.env)
                merged = {
                    key: self.join(merged.get(key), self.env.get(key))
                    for key in keys
                }
        self.env = merged if merged is not None else before

    def _join_env(self, other: Dict[str, Optional[V]]) -> None:
        keys = set(self.env) | set(other)
        self.env = {
            key: self.join(self.env.get(key), other.get(key)) for key in keys
        }

    def _bind_target(
        self, target: ast.expr, value: Optional[V], stmt: ast.stmt
    ) -> None:
        if isinstance(target, ast.Name):
            self._bind(target.id, self.on_assign(target.id, value, stmt))
        elif isinstance(target, (ast.Tuple, ast.List)):
            for element in target.elts:
                self._bind_target(element, None, stmt)
        elif isinstance(target, (ast.Attribute, ast.Subscript)):
            self.eval(target)
        elif isinstance(target, ast.Starred):
            self._bind_target(target.value, None, stmt)

    def _bind(self, name: str, value: Optional[V]) -> None:
        self.env[name] = value
