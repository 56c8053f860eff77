"""R4 -- error discipline.

The library's contract (see ``repro.errors``): every failure the library can
anticipate is a :class:`~repro.errors.ReproError` subclass, so callers can
catch library failures precisely while genuine bugs keep propagating.  Two
anti-patterns break that contract:

* ``except Exception`` / bare ``except`` -- swallows programming errors
  together with domain errors.  The one sanctioned crash-translation
  boundary lives in ``repro.errors.crash_boundary`` (which converts
  unexpected exceptions into :class:`~repro.errors.CandidateCrashError`);
  everything else must catch specific exception types.
* ``raise ValueError(...)`` & friends -- builtin exceptions from library
  code are indistinguishable from interpreter errors.  Raise the matching
  ``ReproError`` subclass instead.

``repro.errors`` itself is exempt: it is where the boundary is
implemented.  ``repro.faults`` and its submodules are likewise
sanctioned: its injection sites must be able to *raise* builtin exceptions
on purpose (the ``raise-crash`` fault kind simulates exactly the untyped
programming error this rule exists to keep out of library code, so the
chaos suite can prove ``crash_boundary`` translates it).  ``repro.checkpoint``
is the third boundary: its reader must translate *any* unpickling failure of
an untrusted byte payload into a typed
:class:`~repro.errors.CheckpointError`, which requires one ``except
Exception`` around ``pickle.loads``.  ``repro.server.api`` is the fourth:
the HTTP dispatch edge must answer an opaque 500 -- instead of killing the
serving thread -- whatever a handler raises, which is a process-edge
``except Exception`` exactly like the CLI main's.
"""

from __future__ import annotations

import ast
from typing import Iterator, Optional

from ..core import FileContext, Finding, Rule, register
from ..symbols import Project

#: Modules allowed to implement sanctioned boundaries: ``repro.errors``
#: hosts the one except-Exception crash translator, ``repro.faults`` raises
#: builtin exceptions *deliberately* at its injection sites,
#: ``repro.checkpoint`` translates arbitrary unpickling failures into typed
#: ``CheckpointError``s, and ``repro.server.api`` turns anything a request
#: handler raises into an HTTP 500 at the process edge.  Submodules are
#: covered too (prefix match).
BOUNDARY_MODULES = (
    "repro.errors",
    "repro.faults",
    "repro.checkpoint",
    "repro.server.api",
)


def _is_boundary_module(module: str) -> bool:
    """Whether ``module`` (or a parent package) is a sanctioned boundary."""
    return any(
        module == boundary or module.startswith(boundary + ".")
        for boundary in BOUNDARY_MODULES
    )

#: Builtin exceptions library code must not raise (ReproError instead).
DISALLOWED_RAISES = frozenset({
    "Exception",
    "BaseException",
    "ValueError",
    "TypeError",
    "RuntimeError",
    "KeyError",
    "IndexError",
    "LookupError",
    "AttributeError",
    "ArithmeticError",
    "ZeroDivisionError",
    "OSError",
    "IOError",
    "EOFError",
    "AssertionError",
    "StopIteration",
    "SystemError",
    "BufferError",
})

#: Catch-all exception names flagged in handlers.
BROAD_CATCHES = frozenset({"Exception", "BaseException"})


def _exception_names(node: Optional[ast.expr]) -> Iterator[str]:
    """Plain names of the exception classes in an except clause."""
    if node is None:
        return
    if isinstance(node, ast.Tuple):
        for element in node.elts:
            yield from _exception_names(element)
    elif isinstance(node, ast.Name):
        yield node.id
    elif isinstance(node, ast.Attribute):
        yield node.attr


@register
class ErrorDisciplineRule(Rule):
    """R4: no broad excepts, no builtin raises -- ReproError everywhere."""

    id = "R4"
    name = "error-discipline"
    description = (
        "no bare/``except Exception`` handlers outside repro.errors' "
        "crash_boundary; raise ReproError subclasses, not builtins"
    )

    def check(self, ctx: FileContext, project: Project) -> Iterator[Finding]:
        if _is_boundary_module(ctx.module):
            return
        for node in ast.walk(ctx.tree):
            if isinstance(node, ast.ExceptHandler):
                yield from self._check_handler(ctx, node)
            elif isinstance(node, ast.Raise):
                yield from self._check_raise(ctx, node)

    def _check_handler(
        self, ctx: FileContext, node: ast.ExceptHandler
    ) -> Iterator[Finding]:
        if node.type is None:
            yield self.finding(
                ctx,
                node,
                "bare except swallows every error including bugs; catch "
                "specific exceptions (ReproError for library failures) or "
                "use repro.errors.crash_boundary",
            )
            return
        for name in _exception_names(node.type):
            if name in BROAD_CATCHES:
                yield self.finding(
                    ctx,
                    node,
                    f"except {name} mixes domain errors with genuine bugs; "
                    f"catch ReproError (infeasible/illegal inputs) and let "
                    f"repro.errors.crash_boundary translate the rest",
                )

    def _check_raise(
        self, ctx: FileContext, node: ast.Raise
    ) -> Iterator[Finding]:
        exc = node.exc
        name: Optional[str] = None
        if isinstance(exc, ast.Call):
            func = exc.func
            if isinstance(func, ast.Name):
                name = func.id
            elif isinstance(func, ast.Attribute):
                name = func.attr
        elif isinstance(exc, ast.Name):
            name = exc.id
        if name in DISALLOWED_RAISES:
            yield self.finding(
                ctx,
                node,
                f"raise {name} from library code; raise the matching "
                f"ReproError subclass from repro.errors instead",
            )
