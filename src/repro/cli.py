"""Command-line interface for the liquid-cooling design flows.

Subcommands mirror the library's main entry points::

    repro simulate  --case 1 --grid 51 --network tree --pressure 15e3
    repro optimize  --case 1 --problem 1 --quick --out design.txt
    repro portfolio --case-seed 7 --optimizers multi_fidelity sa_4rm
    repro evaluate  --case 1 --network-file design.txt --problem 1
    repro compare   --case 1 --grid 41 --tiles 2 4 8
    repro render    --network-file design.txt

(also available as ``python -m repro ...``).

Long ``optimize`` and ``portfolio`` runs are supervised when
``--checkpoint-dir`` is given: SIGINT/SIGTERM stop the run at the next
round boundary, after that round's checkpoint reached disk, and the process
exits with :data:`EXIT_INTERRUPTED` (75); ``--resume`` picks the run back
up -- bitwise -- from the checkpoint (see
:func:`repro.optimize.portfolio.run_portfolio`).
"""

from __future__ import annotations

import argparse
import signal
import sys
from typing import List, Optional

from . import profiling
from .analysis import (
    compare_models,
    format_table,
    render_field,
    render_network,
    source_layer_map,
)
from .telemetry import runlog
from .analysis.model_compare import aggregate_by
from .checkpoint.atomic import atomic_write_json
from .errors import ReproError, RunInterrupted
from .iccad2015 import load_case, read_network, write_network
from .networks import serpentine_network
from .optimize import optimize_problem1, optimize_problem2
from .optimize.parallel import single_blas_thread
from .optimize.portfolio import (
    DEFAULT_PORTFOLIO,
    PROBLEM_PUMPING_POWER,
    PROBLEM_THERMAL_GRADIENT,
    PortfolioConfig,
    run_portfolio,
)
from .optimize.stages import evaluate_design
from .thermal import RC2Simulator, RC4Simulator

#: Exit code of a supervised run stopped by SIGINT/SIGTERM after flushing
#: its checkpoint (EX_TEMPFAIL: rerun with ``--resume`` to continue).
EXIT_INTERRUPTED = 75


class RunSupervisor:
    """Translates SIGINT/SIGTERM into a cooperative stop flag.

    Used as a context manager around a checkpointed run: while active, the
    first SIGINT/SIGTERM sets :meth:`stop_requested` instead of killing the
    process, the checkpoint layer polls the flag after every write and
    raises :class:`~repro.errors.RunInterrupted` once it is set -- so the
    process always exits *after* its latest state reached disk.  A second
    SIGINT (e.g. an impatient Ctrl-C) falls through to Python's default
    ``KeyboardInterrupt`` behavior.  Previous handlers are restored on exit.
    """

    SIGNALS = (signal.SIGINT, signal.SIGTERM)

    def __init__(self) -> None:
        self._stop = False
        self._previous: dict = {}

    def stop_requested(self) -> bool:
        """True once a stop signal arrived (the ``interrupt_check`` hook)."""
        return self._stop

    def _handle(self, signum, frame) -> None:
        if self._stop and signum == signal.SIGINT:
            raise KeyboardInterrupt
        self._stop = True
        print(
            "stop requested; flushing checkpoint at the next safe point "
            "(interrupt again to abort hard)",
            file=sys.stderr,
        )

    def __enter__(self) -> "RunSupervisor":
        for signum in self.SIGNALS:
            self._previous[signum] = signal.signal(signum, self._handle)
        return self

    def __exit__(self, *exc_info) -> None:
        for signum, previous in self._previous.items():
            signal.signal(signum, previous)
        self._previous.clear()


def main(argv: Optional[List[str]] = None) -> int:
    """Entry point; returns a process exit code."""
    single_blas_thread()  # as in pool workers
    parser = _build_parser()
    args = parser.parse_args(argv)
    if args.command is None:
        parser.print_help()
        return 2
    try:
        args.handler(args)
    except RunInterrupted as exc:
        print(f"interrupted: {exc}", file=sys.stderr)
        return EXIT_INTERRUPTED
    except ReproError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    return 0


# ---------------------------------------------------------------------------
# Parser
# ---------------------------------------------------------------------------


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro",
        description="Liquid cooling network design for 3D ICs (DAC 2017 "
        "reproduction)",
    )
    parser.set_defaults(command=None)
    sub = parser.add_subparsers(dest="command")

    def add_case_args(p):
        p.add_argument("--case", type=int, default=1, help="benchmark case 1-5")
        p.add_argument(
            "--grid", type=int, default=51, help="grid size in basic cells"
        )

    p = sub.add_parser("simulate", help="steady thermal simulation")
    add_case_args(p)
    p.add_argument(
        "--network",
        choices=("straight", "tree", "serpentine"),
        default="straight",
    )
    p.add_argument("--network-file", help="load the network from a file instead")
    p.add_argument("--pressure", type=float, default=15e3, help="P_sys in Pa")
    p.add_argument("--model", choices=("2rm", "4rm"), default="2rm")
    p.add_argument("--tile-size", type=int, default=4)
    p.add_argument("--map", action="store_true", help="print the source map")
    p.set_defaults(handler=_cmd_simulate)

    p = sub.add_parser("optimize", help="run a design flow (Problem 1 or 2)")
    add_case_args(p)
    p.add_argument("--problem", type=int, choices=(1, 2), default=1)
    p.add_argument("--quick", action="store_true", help="reduced SA schedule")
    p.add_argument(
        "--directions", type=int, nargs="+", default=[0, 1],
        help="global flow directions to try (0-7)",
    )
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--workers", type=int, default=1)
    p.add_argument(
        "--init",
        choices=("uniform", "power_aware"),
        default="uniform",
        help="tree-parameter initialization",
    )
    p.add_argument("--out", help="write the winning network to this file")
    p.add_argument(
        "--checkpoint-dir",
        help="checkpoint after every SA round (portfolio.ckpt); "
        "SIGINT/SIGTERM stop at the next round boundary and exit with code "
        f"{EXIT_INTERRUPTED}",
    )
    p.add_argument(
        "--resume",
        action="store_true",
        help="resume from the checkpoint in --checkpoint-dir (bitwise; "
        "a missing checkpoint just starts fresh)",
    )
    p.add_argument(
        "--trace-out",
        metavar="TRACE.json",
        help="record spans (parent + workers) and export a Chrome "
        "trace-event JSON here; open it in Perfetto or chrome://tracing",
    )
    p.add_argument(
        "--run-log",
        metavar="RUN.jsonl",
        help="append typed run events (per SA iteration/round/stage) to "
        "this JSONL file; analyze with `python -m repro.telemetry report`",
    )
    p.add_argument(
        "--metrics-interval",
        type=float,
        default=None,
        metavar="SECONDS",
        help="with --run-log: also sample the profiling counters into "
        "run.metrics records at most every SECONDS seconds",
    )
    p.set_defaults(handler=_cmd_optimize)

    p = sub.add_parser(
        "portfolio",
        help="race registered optimizers (2RM surrogate + 4RM promotion)",
    )
    p.add_argument("--case", type=int, default=1, help="benchmark case 1-5")
    p.add_argument(
        "--case-seed",
        type=int,
        default=None,
        metavar="SEED",
        help="run on procedurally generated case SEED (repro.cases) "
        "instead of a contest case",
    )
    p.add_argument(
        "--grid", type=int, default=None, help="grid size override"
    )
    p.add_argument("--problem", type=int, choices=(1, 2), default=1)
    p.add_argument(
        "--optimizers",
        nargs="+",
        default=list(DEFAULT_PORTFOLIO),
        metavar="NAME",
        help="registry names to race (see --list)",
    )
    p.add_argument(
        "--list", action="store_true", help="list registered optimizers"
    )
    p.add_argument("--rounds", type=int, default=3)
    p.add_argument("--iterations", type=int, default=8,
                   help="SA iterations per round")
    p.add_argument("--batch-size", type=int, default=4)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--workers", type=int, default=1)
    p.add_argument(
        "--checkpoint-dir",
        help="checkpoint at every optimizer round boundary; SIGINT/SIGTERM "
        f"still flush state before exit code {EXIT_INTERRUPTED}",
    )
    p.add_argument(
        "--resume",
        action="store_true",
        help="resume from the checkpoint in --checkpoint-dir (bitwise; "
        "a missing checkpoint just starts fresh)",
    )
    p.add_argument(
        "--run-log-dir",
        metavar="DIR",
        help="write one JSONL run log per optimizer into DIR; compare "
        "strategies with `python -m repro.telemetry report A.jsonl "
        "--compare B.jsonl`",
    )
    p.set_defaults(handler=_cmd_portfolio)

    p = sub.add_parser(
        "serve",
        help="run the design service (durable job queue + HTTP API)",
    )
    p.add_argument(
        "--root", required=True,
        help="job-store root directory (durable, on a local filesystem; "
        "one server owns it at a time)",
    )
    p.add_argument("--host", default="127.0.0.1")
    p.add_argument(
        "--port", type=int, default=8752, help="0 picks a free port"
    )
    p.add_argument("--workers", type=int, default=1,
                   help="job-executing worker threads")
    p.add_argument(
        "--tenant-cap", type=int, default=8,
        help="max active jobs per tenant (429 past it)",
    )
    p.add_argument(
        "--run-log", metavar="RUN.jsonl",
        help="append service lifecycle events to this JSONL file",
    )
    p.add_argument(
        "--trace-jobs", action="store_true",
        help="export a stitched Chrome/Perfetto trace per job "
        "(GET /v1/jobs/<id>/trace)",
    )
    p.set_defaults(handler=_cmd_serve)

    p = sub.add_parser(
        "submit", help="submit a job to a running design service"
    )
    p.add_argument("--url", default="http://127.0.0.1:8752")
    p.add_argument("--case", type=int, help="contest case 1-5")
    p.add_argument(
        "--case-seed", type=int, metavar="SEED",
        help="procedurally generated case instead of a contest case",
    )
    p.add_argument("--grid", type=int, help="grid size override")
    p.add_argument("--problem", type=int, choices=(1, 2), default=1)
    p.add_argument("--optimizers", nargs="+", metavar="NAME")
    p.add_argument("--rounds", type=int, default=2)
    p.add_argument("--iterations", type=int, default=4)
    p.add_argument("--batch-size", type=int, default=4)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--tenant", default="default")
    p.add_argument(
        "--wait", action="store_true",
        help="stream the job's events live until it completes and print "
        "the result (falls back to polling if the stream breaks)",
    )
    p.add_argument(
        "--timeout", type=float, default=600.0, metavar="SECONDS",
        help="with --wait: give up after this long",
    )
    p.set_defaults(handler=_cmd_submit)

    p = sub.add_parser(
        "top", help="live terminal dashboard for a running design service"
    )
    p.add_argument("--url", default="http://127.0.0.1:8752")
    p.add_argument(
        "--interval", type=float, default=2.0, metavar="SECONDS",
        help="refresh interval",
    )
    p.add_argument(
        "--iterations", type=int, default=0, metavar="N",
        help="stop after N refreshes (0 = until Ctrl-C)",
    )
    p.set_defaults(handler=_cmd_top)

    p = sub.add_parser("evaluate", help="evaluate a network file")
    add_case_args(p)
    p.add_argument("--network-file", required=True)
    p.add_argument("--problem", type=int, choices=(1, 2), default=1)
    p.add_argument("--model", choices=("2rm", "4rm"), default="4rm")
    p.set_defaults(handler=_cmd_evaluate)

    p = sub.add_parser("compare", help="2RM vs 4RM accuracy/speed sweep")
    add_case_args(p)
    p.add_argument("--tiles", type=int, nargs="+", default=[2, 4, 8])
    p.add_argument(
        "--pressures", type=float, nargs="+", default=[5e3, 2e4]
    )
    p.set_defaults(handler=_cmd_compare)

    p = sub.add_parser("render", help="ASCII-render a network file")
    p.add_argument("--network-file", required=True)
    p.add_argument("--max-width", type=int, default=150)
    p.set_defaults(handler=_cmd_render)
    return parser


# ---------------------------------------------------------------------------
# Handlers
# ---------------------------------------------------------------------------


def _load_network(args, case):
    if getattr(args, "network_file", None):
        return read_network(args.network_file)
    kind = getattr(args, "network", "straight")
    if kind == "straight":
        return case.baseline_network()
    if kind == "tree":
        return case.tree_plan().build()
    return serpentine_network(case.nrows, case.ncols, 0, 4, case.cell_width)


def _cmd_simulate(args) -> None:
    case = load_case(args.case, grid_size=args.grid)
    stack = case.stack_with_network(_load_network(args, case))
    if args.model == "2rm":
        simulator = RC2Simulator(stack, case.coolant, tile_size=args.tile_size)
    else:
        simulator = RC4Simulator(stack, case.coolant)
    result = simulator.solve(args.pressure)
    print(f"{case}")
    print(f"{simulator.model_name} ({simulator.n_nodes} nodes): "
          f"{result.summary()}")
    print(f"energy balance error: {result.energy_balance_error():.2e}")
    if args.map:
        print(render_field(source_layer_map(result), max_width=80))


def _cmd_optimize(args) -> None:
    if args.resume and not args.checkpoint_dir:
        raise ReproError("--resume needs --checkpoint-dir")
    if args.metrics_interval is not None and not args.run_log:
        raise ReproError("--metrics-interval needs --run-log")
    case = load_case(args.case, grid_size=args.grid)
    optimizer = optimize_problem1 if args.problem == 1 else optimize_problem2
    prev_tracing = (
        profiling.set_tracing(True) if args.trace_out else None
    )
    prev_log = (
        runlog.set_run_log(
            runlog.RunLog(args.run_log, metrics_interval=args.metrics_interval)
        )
        if args.run_log
        else None
    )
    try:
        if args.checkpoint_dir:
            with RunSupervisor() as supervisor:
                result = optimizer(
                    case,
                    quick=args.quick,
                    directions=tuple(args.directions),
                    seed=args.seed,
                    n_workers=args.workers,
                    initialization=args.init,
                    checkpoint_dir=args.checkpoint_dir,
                    resume=args.resume,
                    interrupt_check=supervisor.stop_requested,
                )
        else:
            result = optimizer(
                case,
                quick=args.quick,
                directions=tuple(args.directions),
                seed=args.seed,
                n_workers=args.workers,
                initialization=args.init,
            )
    finally:
        # Restore the globals and flush artifacts even when the run was
        # interrupted or failed -- a partial trace of a crashed run is
        # exactly what you want to look at.
        if args.run_log:
            runlog.set_run_log(prev_log)
        if args.trace_out:
            atomic_write_json(args.trace_out, profiling.to_chrome_trace())
            profiling.set_tracing(prev_tracing)
            profiling.clear_spans()
            print(f"[trace: {args.trace_out}]", file=sys.stderr)
    ev = result.evaluation
    status = "feasible" if ev.feasible else "INFEASIBLE"
    print(f"{case}  problem {args.problem}  [{status}]")
    print(
        f"P_sys={ev.p_sys / 1e3:.2f} kPa  W_pump={ev.w_pump * 1e3:.3f} mW  "
        f"T_max={ev.t_max:.2f} K  DeltaT={ev.delta_t:.2f} K  "
        f"({result.total_simulations} simulations, direction "
        f"{result.direction})"
    )
    if args.out:
        write_network(result.network, args.out)
        print(f"network written to {args.out}")


def _cmd_portfolio(args) -> None:
    from .optimize.registry import get_optimizer, optimizer_names

    if args.list:
        for name in optimizer_names():
            print(f"{name:16s} {get_optimizer(name).description}")
        return
    if args.resume and not args.checkpoint_dir:
        raise ReproError("--resume needs --checkpoint-dir")
    if args.case_seed is not None:
        from .cases import generate_case

        case = generate_case(args.case_seed, grid_size=args.grid)
    else:
        case = load_case(args.case, grid_size=args.grid or 51)
    problem = (
        PROBLEM_PUMPING_POWER if args.problem == 1 else PROBLEM_THERMAL_GRADIENT
    )
    config = PortfolioConfig(
        problem=problem,
        rounds=args.rounds,
        iterations=args.iterations,
        batch_size=args.batch_size,
        seed=args.seed,
        n_workers=args.workers,
    )
    if args.checkpoint_dir:
        with RunSupervisor() as supervisor:
            result = run_portfolio(
                case,
                tuple(args.optimizers),
                config,
                checkpoint_dir=args.checkpoint_dir,
                resume=args.resume,
                run_log_dir=args.run_log_dir,
                interrupt_check=supervisor.stop_requested,
            )
    else:
        result = run_portfolio(
            case,
            tuple(args.optimizers),
            config,
            run_log_dir=args.run_log_dir,
        )
    print(f"{case}  problem {args.problem}")
    rows = []
    for outcome in result.outcomes.values():
        ev = outcome.evaluation
        rows.append(
            [
                outcome.name,
                f"{outcome.score:.6g}",
                "yes" if ev.feasible else "NO",
                outcome.low_evals,
                outcome.high_evals,
                "-" if outcome.envelope is None else f"{outcome.envelope:.3f}",
            ]
        )
    print(
        format_table(
            ["optimizer", "score", "feasible", "2rm evals", "4rm evals",
             "envelope"],
            rows,
        )
    )
    print(f"winner: {result.best.name} (score {result.best.score:.6g})")
    if args.run_log_dir:
        print(f"[run logs: {args.run_log_dir}/<optimizer>.jsonl]",
              file=sys.stderr)


def _cmd_serve(args) -> None:
    from .server import DesignService

    service = DesignService(
        args.root,
        host=args.host,
        port=args.port,
        n_workers=args.workers,
        tenant_cap=args.tenant_cap,
        run_log=args.run_log,
        trace_jobs=args.trace_jobs,
    )
    with RunSupervisor() as supervisor:
        service.start()
        print(
            f"design service on http://{args.host}:{service.port} "
            f"(root {args.root}, {args.workers} workers); "
            f"SIGTERM drains gracefully",
            flush=True,
        )
        try:
            import time as _time

            while not supervisor.stop_requested():
                _time.sleep(0.2)
        finally:
            service.stop()
            print("drained; job queue state is durable", file=sys.stderr)


def _cmd_submit(args) -> None:
    from .server import ServiceClient

    payload = {
        "problem": args.problem,
        "rounds": args.rounds,
        "iterations": args.iterations,
        "batch_size": args.batch_size,
        "seed": args.seed,
    }
    if args.case_seed is not None:
        payload["case_seed"] = args.case_seed
    elif args.case is not None:
        payload["case"] = args.case
    if args.grid is not None:
        payload["grid"] = args.grid
    if args.optimizers:
        payload["optimizers"] = list(args.optimizers)
    client = ServiceClient(args.url, tenant=args.tenant)
    record = client.submit(payload)
    job_id = record["job_id"]
    print(f"job {job_id} {record['state']}", flush=True)
    if not args.wait:
        return
    from .errors import JobError

    try:
        for event in client.follow_events(job_id):
            line = _format_job_event(event)
            if line:
                print(line, flush=True)
    except JobError as exc:
        print(
            f"[event stream broke ({exc}); falling back to polling]",
            file=sys.stderr,
        )
    final = client.wait(job_id, timeout=args.timeout)
    result = client.result(job_id)
    print(
        f"job {job_id} completed after {final['attempts']} retries: "
        f"winner {result['winner']} score {result['score']:.6g} "
        f"({'feasible' if result['feasible'] else 'INFEASIBLE'})"
    )


def _format_job_event(event: dict) -> str:
    """One human line per streamed job event ('' hides the event)."""
    etype = event.get("type", "?")
    if etype == "portfolio.round":
        score = event.get("verified")
        tail = (
            f" score {score:.6g}"
            if isinstance(score, (int, float))
            else ""
        )
        return f"  {event.get('optimizer', '?')} round{tail}"
    if etype == "portfolio.optimizer.start":
        return (
            f"  {event.get('optimizer', '?')} starting "
            f"({event.get('rounds', '?')} rounds)"
        )
    if etype == "portfolio.optimizer.end":
        score = event.get("score")
        tail = (
            f" score {score:.6g}"
            if isinstance(score, (int, float))
            else ""
        )
        return f"  {event.get('optimizer', '?')} finished{tail}"
    if etype == "stream.end":
        return f"  [stream closed: {event.get('reason')}]"
    if etype.startswith("job."):
        who = event.get("worker") or event.get("dead_worker") or ""
        return f"  {etype}" + (f" ({who})" if who else "")
    return ""


def _cmd_top(args) -> None:
    from .server import run_top

    run_top(args.url, interval=args.interval, iterations=args.iterations)


def _cmd_evaluate(args) -> None:
    case = load_case(args.case, grid_size=args.grid)
    network = read_network(args.network_file)
    problem = (
        PROBLEM_PUMPING_POWER if args.problem == 1 else PROBLEM_THERMAL_GRADIENT
    )
    ev = evaluate_design(case, network, problem, model=args.model)
    status = "feasible" if ev.feasible else "INFEASIBLE"
    print(
        f"[{status}] P_sys={ev.p_sys / 1e3:.2f} kPa  "
        f"W_pump={ev.w_pump * 1e3:.3f} mW  T_max={ev.t_max:.2f} K  "
        f"DeltaT={ev.delta_t:.2f} K  ({ev.simulations} simulations)"
    )


def _cmd_compare(args) -> None:
    case = load_case(args.case, grid_size=args.grid)
    stack = case.base_stack()
    records = compare_models(
        stack, case.coolant, args.tiles, args.pressures, style="straight"
    )
    by_tile = aggregate_by(records, "tile_size")
    cell_um = case.cell_width * 1e6
    rows = [
        [
            f"{tile * cell_um:.0f} um",
            f"{stats['error_abs']:.3%}",
            f"{stats['error_rise']:.2%}",
            f"{stats['speedup']:.1f}x",
        ]
        for tile, stats in by_tile.items()
    ]
    print(
        format_table(
            ["thermal cell", "error (vs T)", "error (vs rise)", "speed-up"],
            rows,
            title=f"2RM vs 4RM on case {case.number} ({case.nrows}x"
            f"{case.ncols})",
        )
    )


def _cmd_render(args) -> None:
    network = read_network(args.network_file)
    print(render_network(network, max_width=args.max_width))


if __name__ == "__main__":
    sys.exit(main())
