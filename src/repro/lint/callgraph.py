"""Project-wide call graph over the analyzed modules.

Nodes are top-level functions identified by ``(module, name)``; edges go
from caller to callee.  Resolution is purely syntactic and follows the same
rules as :meth:`repro.lint.symbols.Project.resolve_call`: direct names
(local functions and ``from X import f`` bindings) and single-attribute
calls on imported modules (``mod.f(...)``).  Method calls, higher-order
dispatch, and calls that leave the analyzed file set produce no edge --
the graph is an *under*-approximation of runtime calls, which is the safe
direction for the dataflow rules built on it (an unresolved callee means
"unknown", never a wrong summary).

Module-level code (the body outside any ``def``) is modeled as a pseudo
function named :data:`MODULE_BODY` so constants computed at import time
participate in the graph.
"""

from __future__ import annotations

import ast
from typing import Dict, Iterator, List, Set, Tuple

from .symbols import ModuleSymbols, Project

#: Pseudo function name for a module's top-level (import-time) code.
MODULE_BODY = "<module>"

#: A call-graph node: ``(module, function)``.
FunctionKey = Tuple[str, str]


class CallGraph:
    """Static caller -> callee edges over a :class:`Project`."""

    def __init__(self, project: Project) -> None:
        self.project = project
        #: caller -> set of callees (both restricted to analyzed functions).
        self.calls: Dict[FunctionKey, Set[FunctionKey]] = {}
        for symbols in project.modules.values():
            self._scan_module(symbols)

    # -- construction ---------------------------------------------------

    def _scan_module(self, symbols: ModuleSymbols) -> None:
        tree = symbols.ctx.tree
        for name, node in symbols.functions.items():
            self._scan_function(symbols, (symbols.module, name), node)
        # Everything not inside a top-level function body belongs to the
        # module pseudo node (class bodies and methods included: a method
        # call edge still records "this module calls that function").
        toplevel = set()
        for name, node in symbols.functions.items():
            for sub in ast.walk(node):
                toplevel.add(id(sub))
        caller = (symbols.module, MODULE_BODY)
        for node in ast.walk(tree):
            if isinstance(node, ast.Call) and id(node) not in toplevel:
                self._add_edge(symbols, caller, node)

    def _scan_function(
        self,
        symbols: ModuleSymbols,
        caller: FunctionKey,
        node: ast.FunctionDef,
    ) -> None:
        for sub in ast.walk(node):
            if isinstance(sub, ast.Call):
                self._add_edge(symbols, caller, sub)

    def _add_edge(
        self, symbols: ModuleSymbols, caller: FunctionKey, call: ast.Call
    ) -> None:
        resolved = self.project.resolve_call(symbols, call)
        if resolved is None:
            return
        if self.project.function_def(*resolved) is None:
            return
        self.calls.setdefault(caller, set()).add(resolved)

    # -- queries --------------------------------------------------------

    def functions(self) -> Iterator[FunctionKey]:
        """Every analyzed top-level function, in deterministic order."""
        for module in sorted(self.project.modules):
            symbols = self.project.modules[module]
            for name in symbols.functions:
                yield module, name

    def topological_order(self) -> List[FunctionKey]:
        """Callees-before-callers order, cycles broken deterministically.

        Used by the taint-summary computation so most summaries are final
        after one pass; recursion cycles simply fall back to the extra
        fixpoint iterations the caller runs anyway.
        """
        order: List[FunctionKey] = []
        visited: Set[FunctionKey] = set()

        def visit(key: FunctionKey, stack: Set[FunctionKey]) -> None:
            if key in visited or key in stack:
                return
            stack.add(key)
            for callee in sorted(self.calls.get(key, ())):
                visit(callee, stack)
            stack.discard(key)
            visited.add(key)
            order.append(key)

        for key in self.functions():
            visit(key, set())
        return order
