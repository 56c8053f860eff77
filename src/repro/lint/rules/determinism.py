"""R9 -- determinism-taint analysis.

The reproduction's core promise is bit-identical reruns: the SA schedule is
seeded, cache keys are quantized, checkpoints resume mid-anneal.  One
``time.time()`` laundered through a helper into a cache key silently breaks
all of it.  R9 tracks *nondeterminism taint* through the dataflow framework
(:mod:`repro.lint.dataflow`) and flags tainted values reaching a
determinism-sensitive sink.

Sources (each labels the value with a taint tag):

* wall-clock reads: ``time.time/time_ns/perf_counter/monotonic``
* entropy: ``os.urandom``, ``uuid.uuid4``
* process identity: ``os.getpid``
* object identity: ``id(...)`` (varies across runs and across processes)
* unseeded RNG: module-level ``random.*`` calls, ``numpy.random.*`` legacy
  calls, and ``default_rng()`` / ``random.Random()`` *without* a seed
  argument (seeded constructions are deterministic and stay clean)
* set iteration order: ``set`` displays, ``set()`` calls, and set
  comprehensions carry an ``unordered`` tag that survives iteration and
  ``list()``/``tuple()`` materialization (``frozenset`` hashing is
  order-independent and stays clean)

Sanitizers: ``sorted(...)`` erases ``unordered``; order-insensitive folds
(``len``/``sum``/``min``/``max``) do too.

Sinks (a tainted value arriving here is a finding):

* cache keys -- ``hash(...)``, subscript reads/writes and ``.get``/
  ``.setdefault``/``.pop`` on containers named ``*cache*``/``*memo*``, and
  arguments to ``quantize_key`` or any ``*cache_key*`` helper
* checkpoint state -- arguments to ``write_checkpoint``, the one
  checkpoint writer: whatever goes in is replayed on resume, so it must be
  derivable
* telemetry run events -- arguments to ``emit_event`` from non-boundary
  modules (the telemetry package itself stamps wall time on purpose)
* SA scoring -- ``return`` values of scoring functions (name matching
  score/evaluate/cost/energy/objective) in ``repro.optimize`` or a module
  declaring ``repro-lint-scope: sa-scoring``

Taint crosses function boundaries: per-function summaries (intrinsic taint
plus which parameters pass through to the return value) are computed over
the project call graph in callee-first order, so a helper that merely
*returns* ``time.time()`` taints every caller.  Modules under
``repro.telemetry``, ``repro.profiling``, and ``repro.faults`` -- or any
module declaring ``repro-lint-scope: determinism-boundary`` -- are
sanctioned: the rule skips their bodies and treats their functions' returns
as clean, the same whole-segment prefix convention R4 uses.
"""

from __future__ import annotations

import ast
import re
from typing import Dict, FrozenSet, Iterator, List, Optional, Tuple

from ..core import FileContext, Finding, Rule, register
from ..dataflow import ForwardDataflow, FunctionNode
from ..symbols import ModuleSymbols, Project

#: Taint tags (human-readable; they appear in finding messages).
WALL_CLOCK = "wall-clock"
ENTROPY = "entropy"
PID = "process-id"
OBJECT_ID = "object-identity"
RNG = "unseeded-rng"
UNORDERED = "set-order"

Taint = FrozenSet[str]

#: Modules sanctioned to touch nondeterministic values: telemetry stamps
#: wall time on events, profiling measures it, fault injection draws from
#: its own seeded-but-chaotic machinery.  Submodules covered (prefix match),
#: plus any module declaring ``repro-lint-scope: determinism-boundary``.
BOUNDARY_MODULES = ("repro.telemetry", "repro.profiling", "repro.faults")

#: ``time`` attributes that read a clock.
_CLOCK_CALLS = frozenset(
    {"time", "time_ns", "perf_counter", "perf_counter_ns", "monotonic",
     "monotonic_ns", "clock_gettime"}
)

#: Checkpoint writers (checkpoint sinks).
_STATE_CONSTRUCTORS = frozenset({"write_checkpoint"})

#: Scoring-function names (SA objective sinks).
_SCORING_NAME_RE = re.compile(r"score|evaluate|cost|energy|objective")

#: Cache-container names (same heuristic family as R2).
_CACHE_NAME_RE = re.compile(r"cache|memo", re.IGNORECASE)

#: Mapping-access methods whose first argument is a key.
_KEYED_METHODS = frozenset({"get", "setdefault", "pop"})

#: Builtins that fold an iterable order-insensitively.
_ORDER_INSENSITIVE = frozenset({"len", "sum", "min", "max", "frozenset"})


def is_boundary(ctx: FileContext) -> bool:
    """Whether the module is a sanctioned nondeterminism boundary."""
    if "determinism-boundary" in ctx.scopes:
        return True
    return any(
        ctx.module == boundary or ctx.module.startswith(boundary + ".")
        for boundary in BOUNDARY_MODULES
    )


def _param_marker(index: int) -> str:
    return f"param:{index}"


def _dotted(node: ast.expr) -> Optional[str]:
    """``a.b.c`` as a string for Name/Attribute chains, else ``None``."""
    parts: List[str] = []
    while isinstance(node, ast.Attribute):
        parts.append(node.attr)
        node = node.value
    if not isinstance(node, ast.Name):
        return None
    parts.append(node.id)
    return ".".join(reversed(parts))


def _container_name(node: ast.expr) -> Optional[str]:
    """The variable/attribute name a subscript or method call targets."""
    if isinstance(node, ast.Name):
        return node.id
    if isinstance(node, ast.Attribute):
        return node.attr
    return None


class TaintFlow(ForwardDataflow[Taint]):
    """Taint propagation over one body; sinks are added by the subclass."""

    def __init__(
        self,
        project: Project,
        symbols: ModuleSymbols,
        summaries: Dict[Tuple[str, str], Taint],
    ) -> None:
        super().__init__()
        self.project = project
        self.symbols = symbols
        self.summaries = summaries

    # -- taint lattice ---------------------------------------------------

    def join(self, a: Optional[Taint], b: Optional[Taint]) -> Optional[Taint]:
        if a is None:
            return b
        if b is None:
            return a
        return a | b

    # -- sources ---------------------------------------------------------

    def _resolved_module(self, name: str) -> Optional[str]:
        """The real module a local name refers to (``np`` -> ``numpy``)."""
        module = self.symbols.imported_modules.get(name)
        if module is not None:
            return module
        imported = self.symbols.imported_names.get(name)
        if imported is not None:
            return f"{imported[0]}.{imported[1]}"
        return None

    def _source_taint(self, node: ast.Call) -> Optional[Taint]:
        func = node.func
        if isinstance(func, ast.Name):
            target = self.symbols.imported_names.get(func.id)
            qualified = f"{target[0]}.{target[1]}" if target else func.id
            if func.id == "id":
                return frozenset({OBJECT_ID})
            if qualified in ("time.time", "time.perf_counter"):
                return frozenset({WALL_CLOCK})
            if qualified == "os.urandom":
                return frozenset({ENTROPY})
            if qualified == "os.getpid":
                return frozenset({PID})
            if qualified == "uuid.uuid4":
                return frozenset({ENTROPY})
            if qualified in ("numpy.random.default_rng", "random.Random"):
                return None if node.args else frozenset({RNG})
            if func.id == "set" or qualified == "builtins.set":
                return frozenset({UNORDERED})
            return None
        dotted = _dotted(func)
        if dotted is None:
            return None
        root, _, rest = dotted.partition(".")
        module = self._resolved_module(root)
        if module is not None:
            dotted = f"{module}.{rest}" if rest else module
        if dotted.startswith("time.") and dotted.split(".")[-1] in _CLOCK_CALLS:
            return frozenset({WALL_CLOCK})
        if dotted == "os.urandom":
            return frozenset({ENTROPY})
        if dotted == "os.getpid":
            return frozenset({PID})
        if dotted == "uuid.uuid4":
            return frozenset({ENTROPY})
        if dotted in ("numpy.random.default_rng", "random.Random"):
            return None if node.args else frozenset({RNG})
        if dotted.startswith("random.") and dotted != "random.Random":
            return frozenset({RNG})
        if dotted.startswith("numpy.random."):
            return frozenset({RNG})
        return None

    # -- value hooks -----------------------------------------------------

    def eval(self, node: ast.expr) -> Optional[Taint]:
        # f-strings interpolate their taint into the result (the classic
        # tainted-cache-key shape); the base engine treats them as opaque.
        if isinstance(node, ast.JoinedStr):
            taint: Optional[Taint] = None
            for value in node.values:
                if isinstance(value, ast.FormattedValue):
                    taint = self.join(taint, self.eval(value.value))
            return taint
        return super().eval(node)

    def eval_call(
        self, node: ast.Call, args: List[Optional[Taint]]
    ) -> Optional[Taint]:
        func = node.func
        if isinstance(func, ast.Name):
            if func.id == "sorted" and node.args:
                taint = args[0]
                if taint:
                    taint = taint - {UNORDERED}
                return taint or None
            if func.id in _ORDER_INSENSITIVE and len(node.args) == 1:
                taint = args[0]
                if taint:
                    taint = taint - {UNORDERED}
                return taint or None
            if func.id in ("list", "tuple") and len(node.args) == 1:
                return args[0]
            if func.id == "set":
                merged: Optional[Taint] = frozenset({UNORDERED})
                for taint in args:
                    merged = self.join(merged, taint)
                return merged
        source = self._source_taint(node)
        if source is not None:
            return source
        resolved = self.project.resolve_call(self.symbols, node)
        if resolved is None:
            return None
        summary = self.summaries.get(resolved)
        if summary is None:
            return None
        result: Optional[Taint] = (
            frozenset(t for t in summary if not t.startswith("param:"))
            or None
        )
        for tag in summary:
            if not tag.startswith("param:"):
                continue
            index = int(tag.partition(":")[2])
            actual = self._argument_taint(node, args, resolved, index)
            result = self.join(result, actual)
        return result

    def _argument_taint(
        self,
        node: ast.Call,
        args: List[Optional[Taint]],
        resolved: Tuple[str, str],
        index: int,
    ) -> Optional[Taint]:
        """Taint of the argument bound to parameter ``index`` at a call."""
        if index < len(node.args):
            if isinstance(node.args[index], ast.Starred):
                return None
            return args[index]
        found = self.project.function_def(*resolved)
        if found is None:
            return None
        _, func = found
        params = [a.arg for a in func.args.posonlyargs + func.args.args]
        if index >= len(params):
            return None
        for keyword in node.keywords:
            if keyword.arg == params[index]:
                return self.eval(keyword.value)
        return None

    def eval_binop(
        self, node: ast.BinOp, left: Optional[Taint], right: Optional[Taint]
    ) -> Optional[Taint]:
        return self.join(left, right)

    def eval_subscript(
        self,
        node: ast.Subscript,
        value: Optional[Taint],
        key: Optional[Taint],
    ) -> Optional[Taint]:
        return value

    def eval_display(
        self, node: ast.expr, elements: List[Optional[Taint]]
    ) -> Optional[Taint]:
        merged: Optional[Taint] = None
        for taint in elements:
            merged = self.join(merged, taint)
        if isinstance(node, ast.Set):
            merged = self.join(merged, frozenset({UNORDERED}))
        return merged

    def eval_comprehension(
        self, node: ast.expr, element: Optional[Taint]
    ) -> Optional[Taint]:
        if isinstance(node, ast.SetComp):
            return self.join(element, frozenset({UNORDERED}))
        return element

    def iter_element(
        self, node: ast.expr, iterable: Optional[Taint]
    ) -> Optional[Taint]:
        return iterable


class SummaryFlow(TaintFlow):
    """Computes one function's taint summary (returns only, no sinks)."""

    def __init__(
        self,
        project: Project,
        symbols: ModuleSymbols,
        summaries: Dict[Tuple[str, str], Taint],
        node: ast.FunctionDef,
    ) -> None:
        super().__init__(project, symbols, summaries)
        args = node.args
        params = args.posonlyargs + args.args
        for index, arg in enumerate(params):
            self.env[arg.arg] = frozenset({_param_marker(index)})
        self.result: Optional[Taint] = None

    def on_return(self, node: ast.Return, value: Optional[Taint]) -> None:
        if value:
            self.result = self.join(self.result, value)


def compute_summaries(project: Project) -> Dict[Tuple[str, str], Taint]:
    """Per-function taint summaries in callee-first order (cached per run)."""
    cached = getattr(project, "_taint_summaries", None)
    if cached is not None:
        return cached
    summaries: Dict[Tuple[str, str], Taint] = {}
    for module, name in project.callgraph.topological_order():
        symbols = project.modules[module]
        if is_boundary(symbols.ctx):
            continue  # sanctioned: callers see clean returns
        node = symbols.functions[name]
        flow = SummaryFlow(project, symbols, summaries, node)
        flow.walk(node.body)
        if flow.result:
            summaries[(module, name)] = flow.result
    project._taint_summaries = summaries
    return summaries


class TaintCheck(TaintFlow):
    """The checking walker: propagates taint and fires the sinks."""

    def __init__(
        self,
        rule: "DeterminismRule",
        ctx: FileContext,
        symbols: ModuleSymbols,
        project: Project,
        summaries: Dict[Tuple[str, str], Taint],
        findings: List[Finding],
        function_name: Optional[str] = None,
    ) -> None:
        super().__init__(project, symbols, summaries)
        self.rule = rule
        self.ctx = ctx
        self.findings = findings
        self.function_name = function_name

    def enter_function(self, node: FunctionNode) -> None:
        sub = TaintCheck(
            self.rule,
            self.ctx,
            self.symbols,
            self.project,
            self.summaries,
            self.findings,
            function_name=node.name,
        )
        sub.walk(node.body)

    # -- sinks -----------------------------------------------------------

    def _report(self, node: ast.AST, taint: Taint, what: str) -> None:
        tags = ", ".join(sorted(taint))
        self.findings.append(
            self.rule.finding(
                self.ctx,
                node,
                f"nondeterministic value ({tags}) flows into {what}",
            )
        )

    def eval_call(
        self, node: ast.Call, args: List[Optional[Taint]]
    ) -> Optional[Taint]:
        self._check_call_sinks(node, args)
        return super().eval_call(node, args)

    def _check_call_sinks(
        self, node: ast.Call, args: List[Optional[Taint]]
    ) -> None:
        func = node.func
        name = None
        if isinstance(func, ast.Name):
            name = func.id
        elif isinstance(func, ast.Attribute):
            name = func.attr
        if name is None:
            return
        if name == "hash":
            for arg_node, taint in zip(node.args, args):
                if taint:
                    self._report(arg_node, taint, "a hash()-based key")
            return
        if name == "quantize_key" or "cache_key" in name:
            for arg_node, taint in zip(node.args, args):
                if taint:
                    self._report(arg_node, taint, "cache-key construction")
            for keyword in node.keywords:
                taint = self.eval(keyword.value)
                if taint:
                    self._report(
                        keyword.value, taint, "cache-key construction"
                    )
            return
        if name in _STATE_CONSTRUCTORS:
            for arg_node, taint in zip(node.args, args):
                if taint:
                    self._report(
                        arg_node, taint, f"checkpoint state ({name})"
                    )
            for keyword in node.keywords:
                taint = self.eval(keyword.value)
                if taint:
                    self._report(
                        keyword.value,
                        taint,
                        f"checkpoint state ({name}.{keyword.arg})",
                    )
            return
        if name == "emit_event":
            for arg_node in node.args:
                taint = self.eval(arg_node)
                if taint:
                    self._report(arg_node, taint, "a telemetry run event")
            for keyword in node.keywords:
                taint = self.eval(keyword.value)
                if taint:
                    self._report(
                        keyword.value, taint, "a telemetry run event"
                    )
            return
        if (
            isinstance(func, ast.Attribute)
            and name in _KEYED_METHODS
            and node.args
        ):
            container = _container_name(func.value)
            if container and _CACHE_NAME_RE.search(container):
                taint = args[0] if args else None
                if taint:
                    self._report(
                        node.args[0],
                        taint,
                        f"the key of cache {container!r}",
                    )

    def eval_subscript(
        self,
        node: ast.Subscript,
        value: Optional[Taint],
        key: Optional[Taint],
    ) -> Optional[Taint]:
        container = _container_name(node.value)
        if key and container and _CACHE_NAME_RE.search(container):
            self._report(node.slice, key, f"the key of cache {container!r}")
        return super().eval_subscript(node, value, key)

    def on_return(self, node: ast.Return, value: Optional[Taint]) -> None:
        if not value or self.function_name is None:
            return
        if not _SCORING_NAME_RE.search(self.function_name):
            return
        module = self.ctx.module
        in_scope = (
            module == "repro.optimize"
            or module.startswith("repro.optimize.")
            or "sa-scoring" in self.ctx.scopes
        )
        if in_scope:
            self._report(
                node,
                value,
                f"the return value of scoring function "
                f"{self.function_name!r} (SA scoring must be deterministic)",
            )


@register
class DeterminismRule(Rule):
    """R9: nondeterminism must not reach caches, checkpoints, or scoring."""

    id = "R9"
    name = "determinism-taint"
    description = (
        "wall-clock, id(), pids, unseeded RNGs, and set iteration order "
        "must not flow into cache keys, checkpoint state, telemetry events, "
        "or SA scoring"
    )

    def check(self, ctx: FileContext, project: Project) -> Iterator[Finding]:
        if is_boundary(ctx):
            return
        summaries = compute_summaries(project)
        symbols = project.modules[ctx.module]
        findings: List[Finding] = []
        flow = TaintCheck(self, ctx, symbols, project, summaries, findings)
        flow.walk(ctx.tree.body)
        yield from findings
