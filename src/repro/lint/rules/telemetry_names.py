"""R7 -- telemetry name hygiene.

Every span, counter, histogram, and run-event name must be a
dot-namespaced **string literal** declared once in the registry module
:mod:`repro.telemetry.names`.  A dynamic or undeclared name silently forks
the metric namespace: dashboards and the run-log analyzer group by exact
name, so ``"thermal.solves"`` vs ``"thermal.solve"`` (or a name built at
runtime) splits one series into several that never line up.

The rule inspects the first positional argument of the emitting calls:

* ``profiling.increment / observe / timer / span / instant``
* ``runlog.emit_event`` and bare ``span(...)`` / ``instant(...)`` /
  ``emit_event(...)`` (the ``from ..profiling import span`` idiom)
* ``promexpo.gauge`` and bare ``gauge(...)`` (Prometheus gauge samples;
  names live in ``GAUGE_NAMES``)

and requires it to be a lowercase dot-namespaced literal registered in
:data:`repro.telemetry.names.REGISTERED_NAMES`.  Dynamic *families* are
allowed only as f-strings whose literal prefix ends exactly at a registered
wildcard boundary (``f"faults.injected.{kind}"`` for ``faults.injected.*``).

The registry is loaded lazily through :mod:`importlib` so the lint package
keeps its stdlib-only import graph; a module may opt out wholesale by
declaring ``repro-lint-scope: telemetry-unregistered`` (fixtures exercising
the rule itself).
"""

from __future__ import annotations

import ast
import importlib
import re
from typing import Any, Iterator, Optional, Tuple

from ..core import FileContext, Finding, Rule, register
from ..symbols import Project

#: Receiver names whose emitting methods this rule tracks.
_RECEIVERS = frozenset({"profiling", "runlog", "promexpo"})

#: Emitting methods on those receivers (first positional arg is the name).
_METHODS = frozenset(
    {
        "increment",
        "timer",
        "observe",
        "span",
        "instant",
        "emit_event",
        "gauge",
    }
)

#: Bare function names tracked when imported directly
#: (``from ..profiling import span``).
_BARE_FUNCTIONS = frozenset({"span", "instant", "emit_event", "gauge"})

#: ``subsystem.noun[.qualifier]`` -- lowercase segments, dots between them.
_NAME_RE = re.compile(r"^[a-z][a-z0-9_]*(\.[a-z][a-z0-9_]*)+$")

_REGISTRY_MODULE = "repro.telemetry.names"


def _registry() -> Optional[Any]:
    """The :mod:`repro.telemetry.names` module, or ``None`` off-path."""
    try:
        return importlib.import_module(_REGISTRY_MODULE)
    except ImportError:
        return None


def _call_name(node: ast.Call) -> Optional[str]:
    """The tracked call's display name, or ``None`` when untracked."""
    func = node.func
    if (
        isinstance(func, ast.Attribute)
        and func.attr in _METHODS
        and isinstance(func.value, ast.Name)
        and func.value.id in _RECEIVERS
    ):
        return f"{func.value.id}.{func.attr}"
    if isinstance(func, ast.Name) and func.id in _BARE_FUNCTIONS:
        return func.id
    return None


def _fstring_prefix(node: ast.JoinedStr) -> Tuple[str, bool]:
    """Leading literal text of an f-string and whether anything follows it."""
    prefix = ""
    for index, value in enumerate(node.values):
        if isinstance(value, ast.Constant) and isinstance(value.value, str):
            if index == 0:
                prefix = value.value
            continue
        return prefix, True
    return prefix, False


@register
class TelemetryNamesRule(Rule):
    """R7: telemetry names are registered dot-namespaced literals."""

    id = "R7"
    name = "telemetry-names"
    description = (
        "span/metric/run-event names passed to profiling.*, "
        "runlog.emit_event and promexpo.gauge must be dot-namespaced string "
        "literals declared in repro.telemetry.names (f-strings only for "
        "registered wildcard prefixes)"
    )

    def check(self, ctx: FileContext, project: Project) -> Iterator[Finding]:
        if "telemetry-unregistered" in ctx.scopes:
            return
        registry = _registry()
        for node in ast.walk(ctx.tree):
            if not isinstance(node, ast.Call):
                continue
            call = _call_name(node)
            if call is None:
                continue
            yield from self._check_call(ctx, node, call, registry)

    def _check_call(
        self,
        ctx: FileContext,
        node: ast.Call,
        call: str,
        registry: Optional[Any],
    ) -> Iterator[Finding]:
        if not node.args:
            yield self.finding(
                ctx,
                node,
                f"{call}(...) must pass the telemetry name as its first "
                f"positional argument (a string literal)",
            )
            return
        arg = node.args[0]
        if isinstance(arg, ast.JoinedStr):
            yield from self._check_fstring(ctx, node, call, arg, registry)
            return
        if not (isinstance(arg, ast.Constant) and isinstance(arg.value, str)):
            yield self.finding(
                ctx,
                node,
                f"{call}(...) name must be a dot-namespaced string literal "
                f"from repro.telemetry.names, not a dynamic expression "
                f"(dynamic families go through a registered wildcard prefix)",
            )
            return
        name = arg.value
        if not _NAME_RE.match(name):
            yield self.finding(
                ctx,
                node,
                f"{call}({name!r}): telemetry names are dot-namespaced "
                f"(lowercase `subsystem.noun[.qualifier]`, at least two "
                f"segments)",
            )
            return
        if registry is not None and not registry.is_registered(name):
            yield self.finding(
                ctx,
                node,
                f"{call}({name!r}): name is not declared in "
                f"repro.telemetry.names; register it in SPAN_NAMES / "
                f"METRIC_NAMES / EVENT_TYPES (or a wildcard prefix) so the "
                f"namespace stays documented",
            )

    def _check_fstring(
        self,
        ctx: FileContext,
        node: ast.Call,
        call: str,
        arg: ast.JoinedStr,
        registry: Optional[Any],
    ) -> Iterator[Finding]:
        prefix, dynamic = _fstring_prefix(arg)
        if not dynamic:
            # All-literal f-string: treat like a plain constant.
            fake = ast.Constant(value=prefix)
            ast.copy_location(fake, arg)
            replaced = ast.Call(
                func=node.func, args=[fake] + node.args[1:],
                keywords=node.keywords,
            )
            ast.copy_location(replaced, node)
            yield from self._check_call(ctx, replaced, call, registry)
            return
        if registry is None:
            return
        boundaries = {
            pattern[:-1] for pattern in registry.WILDCARD_PREFIXES
        }
        if prefix not in boundaries:
            yield self.finding(
                ctx,
                node,
                f"{call}(f\"{prefix}...\"): f-string telemetry names are "
                f"only allowed when the literal prefix ends exactly at a "
                f"wildcard boundary registered in repro.telemetry.names "
                f"(WILDCARD_PREFIXES)",
            )
