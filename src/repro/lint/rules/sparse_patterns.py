"""R5 -- sparse-solver anti-patterns.

The system matrices here are ~10^4 x 10^4 and larger; the difference between
the memoized-LU path and a naive loop is the difference between the paper's
"seconds per candidate" and minutes.  Four anti-patterns are flagged:

* ``.todense()`` / ``.toarray()`` on matrices -- densifying a system matrix
  is O(n^2) memory and almost always a bug outside tiny debug scripts.
* Sparse construction or format conversion (``coo_matrix``/``csc_matrix``/
  ``diags``/``.tocsc()``/...) inside a ``for``/``while`` loop -- assemble
  once outside, or factor the loop body into a memoized helper.
* Direct factorization (``splu``/``spilu``/``factorized``) anywhere outside
  :mod:`repro.linalg` -- ``repro.linalg`` is the single sanctioned owner of
  raw factorizations; everything else calls ``repro.linalg.factorize`` so
  the error contract and telemetry stay in one place.
* ``splu`` inside a loop (flagged even inside the sanctioned modules), or
  ``spsolve`` anywhere -- repeated factorizations must go through a
  memoized cache; ``spsolve`` throws its factorization away by
  construction.
"""

from __future__ import annotations

import ast
from typing import Iterator, Optional

from ..core import FileContext, Finding, Rule, register
from ..symbols import Project

_DENSIFYING_METHODS = {"todense", "toarray"}

_SPARSE_CONSTRUCTORS = {
    "csr_matrix",
    "csc_matrix",
    "coo_matrix",
    "lil_matrix",
    "dok_matrix",
    "bsr_matrix",
    "diags",
    "spdiags",
    "identity",
    "kron",
    "block_diag",
}

_CONVERSION_METHODS = {"tocsc", "tocsr", "tocoo", "tolil", "todok"}

_FACTORIZERS = {"splu", "spilu", "factorized"}

#: The one module tree allowed to call raw factorizers.  Everything else
#: goes through its ``repro.linalg.factorize`` front door.
LINALG_PACKAGE = "repro.linalg"


def _callee_name(node: ast.Call) -> Optional[str]:
    func = node.func
    if isinstance(func, ast.Name):
        return func.id
    if isinstance(func, ast.Attribute):
        return func.attr
    return None


@register
class SparsePatternsRule(Rule):
    """R5: keep matrices sparse, hoist assembly, memoize factorizations."""

    id = "R5"
    name = "sparse-patterns"
    description = (
        "no .todense()/.toarray(); no sparse assembly/conversion or splu "
        "inside loops; no spsolve; no splu/factorized outside repro.linalg "
        "(call repro.linalg.factorize)"
    )

    def check(self, ctx: FileContext, project: Project) -> Iterator[Finding]:
        module = ctx.module
        sanctioned = module == LINALG_PACKAGE or module.startswith(
            LINALG_PACKAGE + "."
        )
        yield from self._walk(ctx, ctx.tree.body, loop_depth=0,
                              sanctioned=sanctioned)

    def _walk(
        self, ctx: FileContext, body: list, loop_depth: int, sanctioned: bool
    ) -> Iterator[Finding]:
        for stmt in body:
            if isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef)):
                # A nested def's body runs when called, not per iteration.
                yield from self._walk(
                    ctx, stmt.body, loop_depth=0, sanctioned=sanctioned
                )
                continue
            if isinstance(stmt, ast.ClassDef):
                yield from self._walk(
                    ctx, stmt.body, loop_depth=0, sanctioned=sanctioned
                )
                continue
            inner_depth = loop_depth + (
                1 if isinstance(stmt, (ast.For, ast.AsyncFor, ast.While)) else 0
            )
            for child in ast.iter_child_nodes(stmt):
                if isinstance(child, ast.expr):
                    yield from self._check_expr(
                        ctx, child, loop_depth, sanctioned
                    )
                elif isinstance(child, ast.stmt):
                    yield from self._walk(
                        ctx, [child], inner_depth, sanctioned
                    )
                elif isinstance(child, ast.excepthandler):
                    yield from self._walk(
                        ctx, child.body, inner_depth, sanctioned
                    )
                elif isinstance(child, ast.withitem):
                    yield from self._check_expr(
                        ctx, child.context_expr, loop_depth, sanctioned
                    )

    def _check_expr(
        self, ctx: FileContext, expr: ast.expr, loop_depth: int,
        sanctioned: bool,
    ) -> Iterator[Finding]:
        for node in ast.walk(expr):
            if not isinstance(node, ast.Call):
                continue
            name = _callee_name(node)
            if name is None:
                continue
            if name in _DENSIFYING_METHODS and isinstance(
                node.func, ast.Attribute
            ):
                yield self.finding(
                    ctx,
                    node,
                    f".{name}() densifies a sparse matrix (O(n^2) memory); "
                    f"keep the computation sparse or slice what you need",
                )
            elif name == "spsolve":
                yield self.finding(
                    ctx,
                    node,
                    "spsolve discards its factorization; solve through "
                    "repro.linalg.factorize and reuse the factor",
                )
            elif name in _FACTORIZERS and not sanctioned:
                yield self.finding(
                    ctx,
                    node,
                    f"{name}() outside repro.linalg bypasses its error "
                    f"contract and telemetry; call repro.linalg.factorize",
                )
            elif loop_depth > 0 and name in _FACTORIZERS:
                yield self.finding(
                    ctx,
                    node,
                    f"{name}() inside a loop refactorizes every iteration; "
                    f"memoize per quantized pressure (the "
                    f"LinearThermalSystem._factorize pattern)",
                )
            elif loop_depth > 0 and name in _SPARSE_CONSTRUCTORS:
                yield self.finding(
                    ctx,
                    node,
                    f"sparse constructor {name}() inside a loop; assemble "
                    f"triplets across iterations and build once outside",
                )
            elif (
                loop_depth > 0
                and name in _CONVERSION_METHODS
                and isinstance(node.func, ast.Attribute)
            ):
                yield self.finding(
                    ctx,
                    node,
                    f".{name}() format conversion inside a loop; convert "
                    f"once outside the loop",
                )
