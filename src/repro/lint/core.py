"""Framework of the domain lint pass: findings, rules, files.

The analyzer is AST-based and dependency-free (stdlib only): every ``*.py``
file under the given paths is parsed once into a :class:`FileContext`
(tree, comments, docstring scope markers), a project-wide
:class:`~repro.lint.symbols.Project` symbol table is built, and each
registered :class:`Rule` walks the contexts emitting :class:`Finding`
objects.  There is no way to silence a finding: fix the code.
"""

from __future__ import annotations

import ast
import io
import re
import tokenize
from dataclasses import dataclass, field
from pathlib import Path
from typing import (
    Dict,
    Iterable,
    Iterator,
    List,
    Optional,
    Sequence,
    Set,
    Type,
)

from ..errors import LintError

#: Scope markers must sit on their own docstring line (anchored), so prose
#: *mentioning* a marker never accidentally declares one.
_SCOPE_RE = re.compile(r"^repro-lint-scope:\s*([a-z\-, ]+)$", re.MULTILINE)
_UNIT_TAG_RE = re.compile(r"\[unit:\s*([^\]]+)\]")
_UNIT_RETURN_RE = re.compile(r"\[unit-return:\s*([^\]]+)\]")


@dataclass(frozen=True)
class Finding:
    """One rule violation at one source location."""

    rule: str
    path: str
    line: int
    col: int
    message: str

    def render(self) -> str:
        """``path:line:col: RULE message`` (clickable in most terminals)."""
        return (
            f"{self.path}:{self.line}:{self.col}: {self.rule} {self.message}"
        )


class FileContext:
    """Parsed view of one source file shared by every rule.

    Attributes:
        path: Path as given on the command line (kept relative for output).
        module: Best-effort dotted module name (``repro.flow.network``).
        source: Raw file text.
        tree: Parsed ``ast.Module``.
        comments: Mapping of line number -> comment text (without ``#``).
        scopes: Scope markers declared in the module docstring via
            ``repro-lint-scope: units, worker`` (used by rules whose default
            scoping is path-based, mainly so fixtures can opt in).
    """

    def __init__(self, path: Path, source: str, display_path: str) -> None:
        self.path = display_path
        self.source = source
        try:
            self.tree = ast.parse(source, filename=display_path)
        except SyntaxError as exc:
            raise LintError(f"{display_path}: cannot parse: {exc}") from exc
        self.module = _module_name(path)
        self.comments: Dict[int, str] = {}
        self._collect_comments()
        self.scopes: Set[str] = self._scope_markers()

    # -- comment machinery ----------------------------------------------

    def _collect_comments(self) -> None:
        reader = io.StringIO(self.source).readline
        try:
            for token in tokenize.generate_tokens(reader):
                if token.type != tokenize.COMMENT:
                    continue
                self.comments[token.start[0]] = token.string.lstrip(
                    "#"
                ).strip()
        except tokenize.TokenError:
            # A tokenize hiccup only costs comment-based features.
            pass

    def _scope_markers(self) -> Set[str]:
        doc = ast.get_docstring(self.tree) or ""
        scopes: Set[str] = set()
        for match in _SCOPE_RE.finditer(doc):
            scopes.update(
                s.strip() for s in match.group(1).split(",") if s.strip()
            )
        return scopes

    # -- unit-tag helpers (used by R1 and the symbol table) -------------

    def unit_tag_for_line(self, lineno: int) -> Optional[str]:
        """The ``[unit: ...]`` tag attached to the statement at ``lineno``.

        Looks at the trailing comment on the line itself, then walks the
        contiguous comment block directly above (the ``#:`` convention).
        """
        comment = self.comments.get(lineno)
        if comment:
            match = _UNIT_TAG_RE.search(comment)
            if match:
                return match.group(1).strip()
        line = lineno - 1
        while line in self.comments:
            match = _UNIT_TAG_RE.search(self.comments[line])
            if match:
                return match.group(1).strip()
            line -= 1
        return None

    @staticmethod
    def unit_return_tag(node: ast.AST) -> Optional[str]:
        """The ``[unit-return: ...]`` tag of a function docstring."""
        if not isinstance(
            node, (ast.FunctionDef, ast.AsyncFunctionDef)
        ):
            return None
        doc = ast.get_docstring(node) or ""
        match = _UNIT_RETURN_RE.search(doc)
        return match.group(1).strip() if match else None

    @staticmethod
    def attribute_unit_tags(node: ast.ClassDef) -> Dict[str, str]:
        """``attr -> unit`` tags from a class docstring Attributes section.

        Any docstring line shaped like ``name: ... [unit: X]`` counts.
        """
        doc = ast.get_docstring(node) or ""
        tags: Dict[str, str] = {}
        for line in doc.splitlines():
            stripped = line.strip()
            match = re.match(r"(\w+)\s*:", stripped)
            if not match:
                continue
            unit = _UNIT_TAG_RE.search(stripped)
            if unit:
                tags[match.group(1)] = unit.group(1).strip()
        return tags


def _module_name(path: Path) -> str:
    """Dotted module name from the filesystem location, best effort.

    Walks up while ``__init__.py`` siblings exist, so ``src/repro/flow/
    network.py`` maps to ``repro.flow.network``; loose files (fixtures) map
    to their stem.
    """
    path = path.resolve()
    parts = [path.stem] if path.stem != "__init__" else []
    parent = path.parent
    while (parent / "__init__.py").exists():
        parts.insert(0, parent.name)
        parent = parent.parent
    return ".".join(parts) if parts else path.stem


# ---------------------------------------------------------------------------
# Rule registry
# ---------------------------------------------------------------------------


class Rule:
    """Base class for lint rules.

    Subclasses set :attr:`id` / :attr:`name` / :attr:`description` and
    implement :meth:`check`.  Rules are stateless across runs; per-run state
    lives in locals or on the project.
    """

    id: str = ""
    name: str = ""
    description: str = ""

    def check(
        self, ctx: FileContext, project: "Project"
    ) -> Iterator[Finding]:
        """Yield findings for one file."""
        raise NotImplementedError

    def finding(
        self, ctx: FileContext, node: ast.AST, message: str
    ) -> Finding:
        """Build a finding anchored at an AST node."""
        return Finding(
            rule=self.id,
            path=ctx.path,
            line=getattr(node, "lineno", 1),
            col=getattr(node, "col_offset", 0),
            message=message,
        )


_REGISTRY: Dict[str, Type[Rule]] = {}


def register(rule_cls: Type[Rule]) -> Type[Rule]:
    """Class decorator adding a rule to the global registry."""
    if not rule_cls.id:
        raise LintError(f"rule {rule_cls.__name__} has no id")
    if rule_cls.id in _REGISTRY:
        raise LintError(f"duplicate rule id {rule_cls.id}")
    _REGISTRY[rule_cls.id] = rule_cls
    return rule_cls


def all_rules() -> Dict[str, Type[Rule]]:
    """The registered rules by id (importing the rule modules on demand)."""
    from . import rules as _rules  # noqa: F401  (registers on import)

    return dict(_REGISTRY)


# ---------------------------------------------------------------------------
# Report + analyzer
# ---------------------------------------------------------------------------


@dataclass
class LintReport:
    """Outcome of one analyzer run."""

    findings: List[Finding] = field(default_factory=list)
    files_checked: int = 0

    def exit_code(self) -> int:
        """0 when there are no findings, 1 otherwise."""
        return 1 if self.findings else 0


def collect_files(paths: Sequence[str]) -> List[Path]:
    """Expand files/directories into a sorted list of ``*.py`` files."""
    seen: Set[Path] = set()
    out: List[Path] = []
    for raw in paths:
        path = Path(raw)
        if path.is_dir():
            candidates: Iterable[Path] = sorted(path.rglob("*.py"))
        elif path.is_file():
            candidates = [path]
        else:
            raise LintError(f"no such file or directory: {raw}")
        for candidate in candidates:
            resolved = candidate.resolve()
            if resolved not in seen:
                seen.add(resolved)
                out.append(candidate)
    return out


class Analyzer:
    """Run a set of rules over a set of files.

    Args:
        select: Rule ids to run (default: every registered rule).
    """

    def __init__(self, select: Optional[Sequence[str]] = None) -> None:
        registry = all_rules()
        if select is None:
            chosen = sorted(registry)
        else:
            unknown = [r for r in select if r not in registry]
            if unknown:
                raise LintError(
                    f"unknown rule id(s) {unknown}; known: {sorted(registry)}"
                )
            chosen = list(select)
        self.rules: List[Rule] = [registry[rule_id]() for rule_id in chosen]

    def run(self, paths: Sequence[str]) -> LintReport:
        """Analyze every ``*.py`` file under ``paths``."""
        from .symbols import Project

        files = collect_files(paths)
        contexts: List[FileContext] = []
        for file_path in files:
            source = file_path.read_text(encoding="utf-8")
            contexts.append(FileContext(file_path, source, str(file_path)))
        project = Project(contexts)

        found: Set[Finding] = set()
        for ctx in contexts:
            for rule in self.rules:
                found.update(rule.check(ctx, project))
        # Frozen findings dedupe exactly; a node reachable through two key
        # contexts (say) reports once.
        findings = sorted(
            found, key=lambda f: (f.path, f.line, f.col, f.rule, f.message)
        )
        return LintReport(findings=findings, files_checked=len(contexts))
