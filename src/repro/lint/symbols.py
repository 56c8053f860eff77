"""Project-wide symbol table shared by the lint rules.

Built once per analyzer run from every parsed file:

* unit tags of module-level constants (``[unit: ...]`` comments),
* function return-unit tags (``[unit-return: ...]`` docstrings) and
  parameter unit tags (``name: ... [unit: X]`` docstring lines),
* attribute unit tags from class docstrings (``attr: ... [unit: X]``),
* top-level function definitions (the call targets R8 checks),
* a static import graph over the analyzed modules, from which the
  *worker closure* -- every module transitively imported by
  ``repro.optimize.parallel`` -- is derived for the pool-safety rule.

A parameter or return tagged ``[unit: any]`` / ``[unit-return: any]`` is
*covered* but unit-polymorphic (e.g. ``quantize_key`` accepts a float in any
unit and returns it unchanged): it satisfies the R8 coverage check and is
skipped by the call-site compatibility check.

All resolution is purely syntactic; imports that leave the analyzed file set
(numpy, scipy, stdlib) simply resolve to nothing.
"""

from __future__ import annotations

import ast
import re
from typing import Dict, List, Optional, Sequence, Set, Tuple, Union

from ..errors import LintError
from .core import FileContext, _UNIT_TAG_RE
from .units import Unit, parse_unit


def safe_parse_unit(tag: str) -> Optional[Unit]:
    """Parse a unit tag, returning ``None`` for invalid bodies.

    Docstring prose legitimately contains placeholder tags like
    ``[unit: ...]`` (the lint's own documentation does); the symbol table
    must not crash on them -- R1 separately validates the tags it requires.
    """
    try:
        return parse_unit(tag)
    except LintError:
        return None

#: Docstring line declaring a parameter's unit: ``name: ... [unit: X]``.
_PARAM_LINE_RE = re.compile(r"^(\w+)\s*:")

#: Tag body marking a deliberately unit-polymorphic parameter/return.
POLYMORPHIC_TAG = "any"

#: Module whose import closure defines the worker-safety (R3) scope.
WORKER_ROOT = "repro.optimize.parallel"

#: Modules whose numeric constants must carry unit tags (R1), by dotted
#: module name or package prefix.
UNIT_SCOPED_MODULES = ("repro.constants", "repro.materials")
UNIT_SCOPED_PACKAGES = ("repro.flow", "repro.thermal", "repro.cooling")


def _package_of(module: str, is_package: bool) -> str:
    """The package a module's relative imports resolve against."""
    if is_package:
        return module
    return module.rpartition(".")[0]


def resolve_import_from(
    module: str, is_package: bool, node: ast.ImportFrom
) -> Optional[str]:
    """Absolute dotted module targeted by a ``from ... import`` statement."""
    if node.level == 0:
        return node.module
    base = _package_of(module, is_package)
    for _ in range(node.level - 1):
        if not base:
            return None
        base = base.rpartition(".")[0]
    if node.module:
        return f"{base}.{node.module}" if base else node.module
    return base or None


class ModuleSymbols:
    """Per-module facts: unit tags and import bindings."""

    def __init__(self, ctx: FileContext) -> None:
        self.ctx = ctx
        self.module = ctx.module
        self.is_package = ctx.path.endswith("__init__.py")
        #: Module-level constant name -> parsed unit.
        self.constant_units: Dict[str, Unit] = {}
        #: Function (top-level) name -> parsed return unit.
        self.return_units: Dict[str, Unit] = {}
        #: Functions whose return is tagged ``[unit-return: any]``.
        self.polymorphic_returns: Set[str] = set()
        #: Function name -> {param -> unit}; a ``None`` unit means the
        #: parameter is tagged ``[unit: any]`` (covered but polymorphic).
        self.param_units: Dict[str, Dict[str, Optional[Unit]]] = {}
        #: Top-level function definitions by name (R8's call targets).
        self.functions: Dict[str, ast.FunctionDef] = {}
        #: Local alias -> (module, name) for ``from mod import name [as alias]``.
        self.imported_names: Dict[str, Tuple[str, str]] = {}
        #: Local alias -> module for ``import mod [as alias]``.
        self.imported_modules: Dict[str, str] = {}
        #: Modules this file mentions anywhere (for the import graph).
        self.imports: Set[str] = set()
        self._scan()

    def _scan(self) -> None:
        for node in ast.walk(self.ctx.tree):
            if isinstance(node, ast.Import):
                for alias in node.names:
                    self.imports.add(alias.name)
                    if alias.asname:
                        self.imported_modules[alias.asname] = alias.name
                    else:
                        root = alias.name.partition(".")[0]
                        self.imported_modules[root] = root
            elif isinstance(node, ast.ImportFrom):
                target = resolve_import_from(
                    self.module, self.is_package, node
                )
                if target is None:
                    continue
                self.imports.add(target)
                for alias in node.names:
                    if alias.name == "*":
                        continue
                    # ``from pkg import sub`` may name a module; record both
                    # interpretations and let lookups pick whichever exists.
                    self.imports.add(f"{target}.{alias.name}")
                    self.imported_names[alias.asname or alias.name] = (
                        target,
                        alias.name,
                    )
        for node in self.ctx.tree.body:
            self._scan_toplevel(node)

    def _scan_toplevel(self, node: ast.stmt) -> None:
        if isinstance(node, ast.Assign) and len(node.targets) == 1:
            target = node.targets[0]
            if isinstance(target, ast.Name):
                tag = self.ctx.unit_tag_for_line(node.lineno)
                if tag is not None:
                    self.constant_units[target.id] = parse_unit(tag)
        elif isinstance(node, ast.AnnAssign) and isinstance(
            node.target, ast.Name
        ):
            tag = self.ctx.unit_tag_for_line(node.lineno)
            if tag is not None:
                self.constant_units[node.target.id] = parse_unit(tag)
        elif isinstance(node, ast.FunctionDef):
            self.functions[node.name] = node
            tag = self.ctx.unit_return_tag(node)
            if tag is not None:
                if tag == POLYMORPHIC_TAG:
                    self.polymorphic_returns.add(node.name)
                else:
                    unit = safe_parse_unit(tag)
                    if unit is not None:
                        self.return_units[node.name] = unit
            params = _docstring_param_units(node)
            if params:
                self.param_units[node.name] = params
        elif isinstance(node, ast.AsyncFunctionDef):
            tag = self.ctx.unit_return_tag(node)
            if tag is not None and tag != POLYMORPHIC_TAG:
                unit = safe_parse_unit(tag)
                if unit is not None:
                    self.return_units[node.name] = unit


def _docstring_param_units(
    node: Union[ast.FunctionDef, ast.AsyncFunctionDef],
) -> Dict[str, Optional[Unit]]:
    """``param -> unit`` tags from a function docstring.

    Any docstring line shaped like ``name: ... [unit: X]`` whose ``name`` is
    one of the function's parameters counts (the same convention class
    docstrings use for attributes); ``[unit: any]`` maps to ``None``.  A
    tag may sit on the entry's wrapped continuation lines (any following
    line indented deeper than the ``name:`` line), so Google-style entries
    need not cram the tag onto the first line.
    """
    doc = ast.get_docstring(node) or ""
    args = node.args
    param_names = {
        a.arg
        for a in args.posonlyargs + args.args + args.kwonlyargs
    }
    tags: Dict[str, Optional[Unit]] = {}
    lines = doc.splitlines()
    for index, line in enumerate(lines):
        stripped = line.strip()
        match = _PARAM_LINE_RE.match(stripped)
        if not match or match.group(1) not in param_names:
            continue
        indent = len(line) - len(line.lstrip())
        entry = [stripped]
        for next_line in lines[index + 1:]:
            if not next_line.strip():
                break
            next_indent = len(next_line) - len(next_line.lstrip())
            if next_indent <= indent:
                break
            entry.append(next_line.strip())
        unit = _UNIT_TAG_RE.search(" ".join(entry))
        if unit:
            body = unit.group(1).strip()
            if body == POLYMORPHIC_TAG:
                tags[match.group(1)] = None
            else:
                parsed = safe_parse_unit(body)
                if parsed is not None:
                    tags[match.group(1)] = parsed
    return tags


class Project:
    """Cross-file symbol table for one analyzer run."""

    def __init__(self, contexts: Sequence[FileContext]) -> None:
        self.contexts = list(contexts)
        self.modules: Dict[str, ModuleSymbols] = {}
        for ctx in contexts:
            self.modules[ctx.module] = ModuleSymbols(ctx)
        self.attribute_units: Dict[str, Optional[Unit]] = {}
        self._collect_attribute_units()
        self.worker_modules: Set[str] = self._worker_closure()

    # -- units ----------------------------------------------------------

    def _collect_attribute_units(self) -> None:
        """Attribute tags from class docstrings, dropped on conflict."""
        for symbols in self.modules.values():
            for node in ast.walk(symbols.ctx.tree):
                if not isinstance(node, ast.ClassDef):
                    continue
                for attr, tag in FileContext.attribute_unit_tags(
                    node
                ).items():
                    unit = parse_unit(tag)
                    if attr in self.attribute_units:
                        if self.attribute_units[attr] != unit:
                            self.attribute_units[attr] = None  # ambiguous
                    else:
                        self.attribute_units[attr] = unit

    def constant_unit(
        self, module: str, name: str
    ) -> Optional[Unit]:
        """Unit of a module-level constant, if tagged."""
        symbols = self.modules.get(module)
        if symbols is None:
            return None
        return symbols.constant_units.get(name)

    def return_unit(self, module: str, name: str) -> Optional[Unit]:
        """Return unit of a top-level function, if tagged."""
        symbols = self.modules.get(module)
        if symbols is None:
            return None
        return symbols.return_units.get(name)

    def attribute_unit(self, attr: str) -> Optional[Unit]:
        """Unambiguous unit of a tagged attribute name, if any."""
        return self.attribute_units.get(attr)

    def param_units(
        self, module: str, name: str
    ) -> Dict[str, Optional[Unit]]:
        """Declared parameter units of a top-level function (may be empty)."""
        symbols = self.modules.get(module)
        if symbols is None:
            return {}
        return symbols.param_units.get(name, {})

    def resolve_name(
        self, symbols: ModuleSymbols, name: str
    ) -> Optional[Tuple[str, str]]:
        """Resolve a local name to ``(module, symbol)``.

        Covers names defined in the module itself and ``from X import Y``
        bindings into it.
        """
        if name in symbols.imported_names:
            return symbols.imported_names[name]
        if (
            name in symbols.constant_units
            or name in symbols.return_units
            or name in symbols.functions
        ):
            return symbols.module, name
        return None

    def function_def(
        self, module: str, name: str
    ) -> Optional[Tuple["ModuleSymbols", ast.FunctionDef]]:
        """The defining module's symbols + AST node of a top-level function."""
        symbols = self.modules.get(module)
        if symbols is None or name not in symbols.functions:
            return None
        return symbols, symbols.functions[name]

    def resolve_call(
        self, symbols: ModuleSymbols, node: ast.Call
    ) -> Optional[Tuple[str, str]]:
        """Resolve a call's target to ``(module, function)``, best effort.

        Handles direct names (local functions, ``from X import f`` bindings)
        and single-attribute access on an imported module (``mod.f(...)``).
        Methods, nested attributes, and anything dynamic resolve to ``None``.
        """
        func = node.func
        if isinstance(func, ast.Name):
            resolved = self.resolve_name(symbols, func.id)
            if resolved is not None:
                return resolved
            return None
        if isinstance(func, ast.Attribute) and isinstance(
            func.value, ast.Name
        ):
            module = symbols.imported_modules.get(func.value.id)
            if module is None:
                # ``from pkg import sub`` binds a module under a plain name.
                imported = symbols.imported_names.get(func.value.id)
                if imported is not None:
                    module = f"{imported[0]}.{imported[1]}"
            if module is not None and module in self.modules:
                return module, func.attr
        return None

    # -- worker closure -------------------------------------------------

    def _worker_closure(self) -> Set[str]:
        closure: Set[str] = set()
        queue: List[str] = []
        for module, symbols in self.modules.items():
            if module == WORKER_ROOT or "worker" in symbols.ctx.scopes:
                queue.append(module)
        while queue:
            module = queue.pop()
            if module in closure:
                continue
            closure.add(module)
            symbols = self.modules.get(module)
            if symbols is None:
                continue
            for target in symbols.imports:
                # Package imports pull in the package __init__ as well.
                for candidate in (target, target.rpartition(".")[0]):
                    if candidate in self.modules and candidate not in closure:
                        queue.append(candidate)
        return {m for m in closure if m in self.modules}

    def in_worker_scope(self, ctx: FileContext) -> bool:
        """Whether R3 applies to this file."""
        return ctx.module in self.worker_modules or "worker" in ctx.scopes

    def in_unit_scope(self, ctx: FileContext) -> bool:
        """Whether R1's constant-tagging requirement applies to this file."""
        if "units" in ctx.scopes:
            return True
        module = ctx.module
        if module in UNIT_SCOPED_MODULES:
            return True
        return any(
            module == pkg or module.startswith(pkg + ".")
            for pkg in UNIT_SCOPED_PACKAGES
        )
