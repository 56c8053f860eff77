"""Outside-in tracing of the repro layers for the traced benchmark run.

The tracer wraps public entry points of each layer -- module functions and
class methods -- with span recorders that live here, not in ``src/``.  A
span holds its name, layer, start, end and parent; the root span of each
operation (one batch, one job) carries the operation index.  In a traced
run every operation is traced: the wrappers are installed once before the
measured loop and removed after the run, and outside a root span they only
pass the call through.

Spans recorded inside pool worker processes stay there; so do the server's,
which runs in its own process.  Those layers are read from the
``repro.profiling`` counters the pool merges back and from the service's
event timestamps and ``/metrics``.
"""

from __future__ import annotations

import functools
import json
import statistics
import sys
import threading
import time
from contextlib import contextmanager
from dataclasses import dataclass, field
from typing import Any, Callable, Dict, Iterator, List, Optional, Tuple

#: The ``repro.profiling`` counters the layer metrics read.
COUNTERS = (
    "parallel.candidates",
    "parallel.pool_starts",
    "parallel.retries",
    "parallel.worker_lost",
    "parallel.timeouts",
    "parallel.degraded",
    "flow.unit_cache_hits",
    "flow.unit_solves",
    "thermal.solves",
    "thermal.factorizations",
    "linalg.factorizations",
    "linalg.incremental_solves",
    "linalg.incremental_fallbacks",
    "cooling.simulations",
    "cooling.cache_hits",
    "cooling.exact_recomputes",
    "search.probes",
    "portfolio.low_evals",
    "portfolio.high_evals",
    "checkpoint.saves",
    "server.http_requests",
)


class Span:
    """One timed call; ``parent`` is an index into the tracer's spans, and
    the root span of an operation has ``layer`` None."""

    __slots__ = ("name", "layer", "start", "end", "parent", "op")

    def __init__(self, name, layer, start, parent, op):
        self.name = name
        self.layer = layer
        self.start = start
        self.end = start
        self.parent = parent
        self.op = op


def _targets() -> Tuple[list, list]:
    """``(methods, functions)`` to wrap: ``(owner, attr, layer)`` and
    ``(function, layer)``.  Imports every module whose names are patched."""
    import scipy.sparse

    from repro import linalg
    from repro.checkpoint import write_checkpoint
    from repro.cooling import evaluation
    from repro.cooling.system import CoolingSystem
    from repro.flow.network import FlowField
    from repro.networks.tree import TreePlan
    from repro.optimize import parallel, portfolio, runner
    from repro.server import executor  # noqa: F401  (binds run_portfolio)
    from repro.server.client import ServiceClient
    from repro.thermal.rc2 import RC2Simulator
    from repro.thermal.rc4 import RC4Simulator

    factorization = type(linalg.factorize(scipy.sparse.identity(2, format="csc")))
    methods = [
        (TreePlan, "build", "networks"),
        (FlowField, "__init__", "flow"),
        (RC2Simulator, "__init__", "thermal.rc2"),
        (RC2Simulator, "solve", "thermal.rc2"),
        (RC4Simulator, "__init__", "thermal.rc4"),
        (RC4Simulator, "solve", "thermal.rc4"),
        (factorization, "solve", "linalg"),
        (factorization, "solve_many", "linalg"),
        (CoolingSystem, "evaluate", "cooling"),
        (parallel.PersistentEvaluationPool, "__init__", "parallel"),
        (parallel.PersistentEvaluationPool, "evaluate", "parallel"),
        (portfolio.MultiFidelityEvaluator, "promote", "portfolio"),
        (ServiceClient, "submit", "server"),
    ]
    functions = [
        (linalg.factorize, "linalg"),
        (evaluation.evaluate_problem1, "cooling"),
        (evaluation.evaluate_problem2, "cooling"),
        (parallel.evaluate_population, "parallel"),
        (portfolio.run_portfolio, "portfolio"),
        (runner.run_staged_flow, "runner"),
        (write_checkpoint, "checkpoint"),
    ]
    return methods, functions


class Tracer:
    """Span recorder for one benchmark run.

    With ``enabled=False`` every :meth:`root` is a plain context and nothing
    is patched.  Otherwise :meth:`install` patches the layers and every
    operation run inside :meth:`root` is traced.
    """

    def __init__(self, enabled: bool):
        self.enabled = enabled
        self.spans: List[Span] = []
        self._stack: List[int] = []
        self._op: Optional[int] = None
        self._main = threading.get_ident()
        #: (owner, attribute, original) for every patched name.
        self._patches: List[Tuple[Any, str, Any]] = []

    def _wrap(self, fn: Callable, name: str, layer: str) -> Callable:
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            stack = tracer._stack
            if not stack or threading.get_ident() != tracer._main:
                return fn(*args, **kwargs)
            span = Span(name, layer, time.perf_counter(), stack[-1], tracer._op)
            stack.append(len(tracer.spans))
            tracer.spans.append(span)
            try:
                return fn(*args, **kwargs)
            finally:
                span.end = time.perf_counter()
                stack.pop()

        return traced

    def install(self) -> None:
        """Patch the layers; call after the workload imported repro.

        A function is patched under every module-level name that binds it in
        a loaded ``repro`` module, so ``from x import f`` aliases are traced
        too.
        """
        if not self.enabled or self._patches:
            return
        methods, functions = _targets()
        for owner, attr, layer in methods:
            original = owner.__dict__[attr]
            wrapper = self._wrap(original, f"{owner.__name__}.{attr}", layer)
            self._patches.append((owner, attr, original))
            setattr(owner, attr, wrapper)
        modules = [
            m for name, m in list(sys.modules.items())
            if (name == "repro" or name.startswith("repro.")) and m is not None
        ]
        for fn, layer in functions:
            wrapper = self._wrap(fn, fn.__name__, layer)
            for module in modules:
                for attr, value in list(vars(module).items()):
                    if value is fn:
                        self._patches.append((module, attr, fn))
                        setattr(module, attr, wrapper)

    def remove(self) -> None:
        """Undo :meth:`install`."""
        for owner, attr, original in reversed(self._patches):
            setattr(owner, attr, original)
        self._patches = []

    @contextmanager
    def root(self, kind: str, index: int) -> Iterator[Optional[Span]]:
        """Trace one operation; yields its root span (None when disabled)."""
        if not self.enabled:
            yield None
            return
        span = Span(kind, None, time.perf_counter(), None, index)
        self._stack.append(len(self.spans))
        self.spans.append(span)
        self._op = index
        try:
            yield span
        finally:
            span.end = time.perf_counter()
            self._stack.pop()
            self._op = None

    def add_span(
        self, name: str, layer: str, start: float, end: float, parent: Span
    ) -> None:
        """Record a span measured elsewhere (the server's event timestamps)."""
        span = Span(name, layer, start, self.spans.index(parent), parent.op)
        span.end = end
        self.spans.append(span)

    # -- analysis ---------------------------------------------------------

    def self_times(self) -> List[float]:
        """Each span's duration minus the part its child spans cover."""
        covered = [0.0] * len(self.spans)
        for span in self.spans:
            if span.parent is not None:
                covered[span.parent] += span.end - span.start
        return [s.end - s.start - c for s, c in zip(self.spans, covered)]

    def chrome_trace(self) -> dict:
        """The spans as a Chrome/Perfetto trace (``ph: "X"`` events)."""
        origin = min((s.start for s in self.spans), default=0.0)
        events = [
            {
                "name": s.name,
                "cat": s.layer or "op",
                "ph": "X",
                "ts": (s.start - origin) * 1e6,
                "dur": (s.end - s.start) * 1e6,
                "pid": 1,
                "tid": 2 if s.name.startswith("server.") else 1,
                "args": {"op": s.op},
            }
            for s in self.spans
        ]
        events.append(
            {"name": "process_name", "ph": "M", "pid": 1,
             "args": {"name": "benchmark client"}}
        )
        return {"traceEvents": events, "displayTimeUnit": "ms"}

    def write_chrome_trace(self, path) -> None:
        with open(path, "w", encoding="utf-8") as handle:
            json.dump(self.chrome_trace(), handle)


def span_cost_s(calls: int = 20000, repeats: int = 5) -> float:
    """[unit: s] What one recorded span adds to the call it wraps: the
    median over ``repeats`` of a wrapped no-op's time less the bare
    no-op's, per call."""

    def noop():
        return None

    probe = Tracer(enabled=True)
    wrapped = probe._wrap(noop, "noop", "probe")
    costs = []
    for _ in range(repeats):
        with probe.root("calibration", 0):
            start = time.perf_counter()
            for _ in range(calls):
                wrapped()
            traced = time.perf_counter() - start
        start = time.perf_counter()
        for _ in range(calls):
            noop()
        bare = time.perf_counter() - start
        costs.append(max(traced - bare, 0.0) / calls)
        probe.spans.clear()
    return statistics.median(costs)


@dataclass
class LayerInputs:
    """What the per-layer metrics are computed from, besides the spans.

    ``counters`` are the measured loop's ``repro.profiling`` counters (for
    the service, the server's, read from ``/metrics``); ``ops`` the loop's
    operation count.  The timer seconds (pool workers included) and
    ``compute_wall_s``, the wall time they ran in, come from the loop; for
    the service, from the direct leg.
    """

    counters: Dict[str, float]
    ops: int
    n_workers: int
    factorize_p50_s: float = 0.0
    factorize_s: float = 0.0
    candidate_s: float = 0.0
    compute_wall_s: float = 0.0
    checkpoint_bytes: float = 0.0
    overhead_ratio: float = 0.0
    #: [unit: s] Time from one portfolio round's end (or its optimizer's
    #: start) to the next round's end, from ``run_portfolio(progress=...)``.
    round_s: List[float] = field(default_factory=list)
    #: [unit: s] Per service job, from the job's event timestamps: ``queue``
    #: (``job.submitted`` to ``job.claimed``), ``execute`` (``job.claimed``
    #: to ``job.completed``) and ``notify`` (``job.completed`` to the
    #: client's receipt of ``stream.end``).
    server_s: Dict[str, List[float]] = field(default_factory=dict)
    #: [unit: s] What one span adds to a call (:func:`span_cost_s`).
    span_cost_s: float = 0.0


def _p50(values: List[float]) -> float:
    return statistics.median(values) if values else 0.0


def _p90(values: List[float]) -> float:
    if len(values) < 2:
        return values[0] if values else 0.0
    return statistics.quantiles(values, n=10)[-1]


def layer_metrics(tracer: Tracer, inputs: LayerInputs) -> Dict[str, float]:
    """Every per-layer metric of one traced run (0 where a layer is absent)."""
    spans = tracer.spans
    self_t = tracer.self_times()
    roots = [i for i, s in enumerate(spans) if s.layer is None]
    wall = sum(spans[i].end - spans[i].start for i in roots) or 1.0

    def durations(name: str) -> List[float]:
        return [s.end - s.start for s in spans if s.name == name]

    def self_of(name: str) -> List[float]:
        return [t for s, t in zip(spans, self_t) if s.name == name]

    def layer_frac(layer: str) -> float:
        return sum(t for s, t in zip(spans, self_t) if s.layer == layer) / wall

    def name_frac(name: str) -> float:
        return sum(self_of(name)) / wall

    def per_root(name: str) -> List[float]:
        """Total duration of ``name`` spans in each operation that has one."""
        totals: Dict[int, float] = {}
        for s in spans:
            if s.name == name:
                totals[s.op] = totals.get(s.op, 0.0) + s.end - s.start
        return list(totals.values())

    c = inputs.counters
    cands = c.get("parallel.candidates", 0)

    def per_cand(name: str) -> float:
        return c.get(name, 0) / cands if cands else 0.0

    def per_job(name: str) -> float:
        return c.get(name, 0) / inputs.ops if inputs.ops else 0.0

    def ratio(hits: str, misses: str) -> float:
        total = c.get(hits, 0) + c.get(misses, 0)
        return c.get(hits, 0) / total if total else 0.0

    def share(seconds: float) -> float:
        busy = inputs.n_workers * inputs.compute_wall_s
        return seconds / busy if busy else 0.0

    server = inputs.server_s
    layer_spans = len(spans) - len(roots)
    batch_wall = sum(durations("evaluate_population"))
    metrics = {
        "networks.build_ms": _p50(durations("TreePlan.build")) * 1e3,
        "networks.self_frac": layer_frac("networks"),
        "flow.field_ms": _p50(durations("FlowField.__init__")) * 1e3,
        "flow.self_frac": layer_frac("flow"),
        "flow.unit_cache_hit_ratio": ratio("flow.unit_cache_hits", "flow.unit_solves"),
        "thermal.rc2.assembly_ms": _p50(self_of("RC2Simulator.__init__")) * 1e3,
        "thermal.rc2.solve_ms": _p50(durations("RC2Simulator.solve")) * 1e3,
        "thermal.rc2.self_frac": layer_frac("thermal.rc2"),
        "thermal.rc4.assembly_ms": _p50(self_of("RC4Simulator.__init__")) * 1e3,
        "thermal.rc4.solve_ms": _p50(durations("RC4Simulator.solve")) * 1e3,
        "thermal.rc4.self_frac": layer_frac("thermal.rc4"),
        "thermal.solves_per_cand": per_cand("thermal.solves"),
        "thermal.factorizations_per_cand": per_cand("thermal.factorizations"),
        "linalg.factorize_ms": inputs.factorize_p50_s * 1e3,
        "linalg.factorize_share": share(inputs.factorize_s),
        "linalg.self_frac": layer_frac("linalg"),
        "linalg.factorizations_per_cand": per_cand("linalg.factorizations"),
        "linalg.incremental_solves_per_cand": per_cand("linalg.incremental_solves"),
        "linalg.incremental_fallbacks_per_cand": per_cand("linalg.incremental_fallbacks"),
        "cooling.search_self_ms": _p50(
            self_of("evaluate_problem1") + self_of("evaluate_problem2")
        ) * 1e3,
        "cooling.self_frac": layer_frac("cooling"),
        "cooling.simulations_per_cand": per_cand("cooling.simulations"),
        "cooling.cache_hit_ratio": ratio("cooling.cache_hits", "cooling.simulations"),
        "cooling.exact_recomputes_per_cand": per_cand("cooling.exact_recomputes"),
        "search.probes_per_cand": per_cand("search.probes"),
        "parallel.batch_ms": _p50(durations("evaluate_population")) * 1e3,
        "parallel.self_frac": layer_frac("parallel"),
        "parallel.pool_starts_per_job": per_job("parallel.pool_starts"),
        "parallel.efficiency": (
            inputs.candidate_s / (inputs.n_workers * batch_wall) if batch_wall else 0.0
        ),
        "parallel.failures": sum(
            c.get(n, 0)
            for n in (
                "parallel.retries",
                "parallel.worker_lost",
                "parallel.timeouts",
                "parallel.degraded",
            )
        ),
        "portfolio.round_ms": _p50(inputs.round_s) * 1e3,
        "portfolio.promote_ms": _p50(durations("MultiFidelityEvaluator.promote")) * 1e3,
        "portfolio.self_frac": layer_frac("portfolio"),
        "portfolio.low_evals_per_job": per_job("portfolio.low_evals"),
        "portfolio.high_evals_per_job": per_job("portfolio.high_evals"),
        "runner.staged_flow_s": _p50(per_root("run_staged_flow")),
        "runner.self_frac": layer_frac("runner"),
        "checkpoint.save_ms": _p50(durations("write_checkpoint")) * 1e3,
        "checkpoint.self_frac": layer_frac("checkpoint"),
        "checkpoint.saves_per_job": per_job("checkpoint.saves"),
        "checkpoint.bytes": inputs.checkpoint_bytes,
        "server.submit_ms": _p50(durations("ServiceClient.submit")) * 1e3,
        "server.queue_wait_p50_ms": _p50(server.get("queue", [])) * 1e3,
        "server.queue_wait_p90_ms": _p90(server.get("queue", [])) * 1e3,
        "server.execute_ms": _p50(server.get("execute", [])) * 1e3,
        "server.notify_ms": _p50(server.get("notify", [])) * 1e3,
        "server.submit_frac": name_frac("ServiceClient.submit"),
        "server.queue_wait_frac": name_frac("server.queue_wait"),
        "server.execute_frac": name_frac("server.execute"),
        "server.notify_frac": name_frac("server.notify"),
        "server.http_requests_per_job": per_job("server.http_requests"),
        "server.overhead_ratio": inputs.overhead_ratio,
        "trace.overhead": wall / max(wall - layer_spans * inputs.span_cost_s, 1e-9),
        "trace.unattributed_frac": sum(self_t[i] for i in roots) / wall,
    }
    return metrics
