"""R6 -- atomic persistence.

Run artifacts (checkpoints, benchmark JSON, any serialized state another
process or a resumed run will read back) must never be written in place: a
crash between ``open(..., "w")`` truncating the file and the final flush
leaves a torn artifact that a later reader half-parses.  The sanctioned
primitives live in :mod:`repro.checkpoint` -- ``atomic_write_json`` /
``atomic_write_text`` / ``atomic_write_bytes`` (temp file + fsync +
``os.replace``) for plain artifacts and ``write_checkpoint`` for validated
resume state.

The rule flags direct serialization-to-file shapes:

* ``json.dump(obj, fh)`` / ``pickle.dump(obj, fh)`` -- streaming a
  serializer straight into an (almost always truncate-mode) file handle;
* ``path.write_text(json.dumps(obj))`` and ``fh.write(json.dumps(obj))``
  (likewise ``pickle.dumps``) -- the one-liner variant of the same tear.

Serializing to a *string* for anything else (stdout, sockets, asserts) is
fine; only the write-to-file shapes are flagged.  :mod:`repro.checkpoint`
itself (prefix match, like ``repro.faults`` in R4) is exempt -- it is where
the atomic primitives are implemented.
"""

from __future__ import annotations

import ast
from typing import Iterator, Optional

from ..core import FileContext, Finding, Rule, register
from ..symbols import Project

#: Module prefix allowed to open run artifacts directly: the package that
#: implements the atomic-write primitives.
BOUNDARY_MODULE = "repro.checkpoint"

#: Serializer modules whose ``dump``/``dumps`` this rule tracks.
_SERIALIZER_MODULES = frozenset({"json", "pickle"})

#: Receiver methods that persist their argument to a file.
_WRITE_METHODS = frozenset({"write", "write_text", "write_bytes"})


def _serializer_of(node: ast.expr, attr: str) -> Optional[str]:
    """``"json"``/``"pickle"`` when ``node`` is ``json.<attr>(...)`` etc."""
    if (
        isinstance(node, ast.Call)
        and isinstance(node.func, ast.Attribute)
        and node.func.attr == attr
        and isinstance(node.func.value, ast.Name)
        and node.func.value.id in _SERIALIZER_MODULES
    ):
        return node.func.value.id
    return None


@register
class AtomicPersistenceRule(Rule):
    """R6: run artifacts go through repro.checkpoint's atomic writes."""

    id = "R6"
    name = "atomic-persistence"
    description = (
        "no json.dump/pickle.dump (or .write/.write_text of json.dumps/"
        "pickle.dumps) straight into files; persist run artifacts through "
        "repro.checkpoint's atomic_write_* / write_checkpoint"
    )

    def check(self, ctx: FileContext, project: Project) -> Iterator[Finding]:
        module = ctx.module
        if module == BOUNDARY_MODULE or module.startswith(
            BOUNDARY_MODULE + "."
        ):
            return
        for node in ast.walk(ctx.tree):
            if not isinstance(node, ast.Call):
                continue
            serializer = _serializer_of(node, "dump")
            if serializer is not None:
                yield self.finding(
                    ctx,
                    node,
                    f"{serializer}.dump() streams into a live file and "
                    f"tears on crash; build the artifact in memory and "
                    f"persist it with repro.checkpoint.atomic_write_json / "
                    f"write_checkpoint",
                )
                continue
            yield from self._check_written_dumps(ctx, node)

    def _check_written_dumps(
        self, ctx: FileContext, node: ast.Call
    ) -> Iterator[Finding]:
        """Flag ``<target>.write*(json.dumps(...))`` shapes."""
        func = node.func
        if not isinstance(func, ast.Attribute):
            return
        if func.attr not in _WRITE_METHODS:
            return
        for arg in node.args:
            serializer = self._dumps_in(arg)
            if serializer is not None:
                yield self.finding(
                    ctx,
                    node,
                    f".{func.attr}({serializer}.dumps(...)) overwrites the "
                    f"artifact in place; use repro.checkpoint."
                    f"atomic_write_json (or atomic_write_text/_bytes) so a "
                    f"crash never leaves a torn file",
                )

    def _dumps_in(self, node: ast.expr) -> Optional[str]:
        """The serializer behind ``node`` when it is built from ``dumps``.

        Sees through the common decorations (``json.dumps(...) + "\\n"``,
        ``json.dumps(...).encode()``) so appending a newline does not hide
        the pattern.
        """
        direct = _serializer_of(node, "dumps")
        if direct is not None:
            return direct
        if isinstance(node, ast.BinOp):
            return self._dumps_in(node.left) or self._dumps_in(node.right)
        if isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute):
            # json.dumps(...).encode() and friends.
            return self._dumps_in(node.func.value)
        return None
