"""Command-line interface: ``python -m repro`` / the ``dmra`` script.

Subcommands
-----------
``figure``   reproduce one paper figure (or ``all``) and print the chart
``run``      run one allocator on one scenario and print the metrics
``inspect``  describe a generated scenario (coverage, capacities)
``compare``  run several allocators on one scenario side by side
``analyze``  fairness / envy / convergence / map report for one run
``agents``   multi-process decentralized deployment with fault injection
``bound``    certify the optimality gap against LP/Lagrangian bounds
``online``   event-driven simulation with arrivals and departures
``mobility`` epoch-based movement with handover accounting
``failures`` BS outage injection and recovery report
``crossover`` bisect the load where one scheme overtakes another
``map``      write the deployment/association as an SVG file
``report``   one-page markdown comparison report
``summarize`` render stored result CSVs as charts and tables
``trace``    trace tooling: report, derived metrics, regression diff

Commands that do real work accept ``--trace FILE`` (or the
``DMRA_TRACE`` environment variable) to record a telemetry trace of the
run, and ``--metrics FILE`` to write the derived ``dmra.metrics/1``
document (``.prom``/``.txt`` suffix selects Prometheus exposition).
Both artifacts embed a ``dmra.manifest/1`` run manifest; ``dmra trace
FILE`` renders a trace, ``dmra trace metrics FILE`` derives metrics
from one, and ``dmra trace diff A B`` compares two runs and exits
nonzero on regressions.

Examples::

    dmra figure fig2 --scale smoke --out results/
    dmra run --allocator dmra --ues 600 --seed 1
    dmra run --ues 600 --seed 1 --trace run.jsonl --metrics run.json
    dmra run --ues 100000 --region-m 15000 --bs-per-sp 500 --profile
    dmra trace run.jsonl --min-ms 1
    dmra trace metrics run.jsonl --format prom
    dmra trace diff baseline.json candidate.json --rel-tol 0.01
    dmra compare --ues 600 --seed 1 --placement random
    dmra agents --transport mp --ues 150 --seed 1 --verify
    dmra agents --transport tcp --ues 80 --faults crash --metrics m.json
    dmra inspect --ues 400 --seed 0
    dmra analyze --ues 1100 --seed 3
    dmra online --rate 5 --horizon 600 --holding 120
    dmra bound --ues 600 --seed 3 --method both --baselines auction ilp
    dmra run --ues 100000 --region-m 15000 --bs-per-sp 500 --bound lagrangian
"""

from __future__ import annotations

import argparse
import os
import sys
import time
from contextlib import ExitStack, contextmanager
from pathlib import Path

from repro.baselines import (
    AuctionAllocator,
    BestResponseAllocator,
    CloudOnlyAllocator,
    DCSPAllocator,
    GreedyProfitAllocator,
    NonCoAllocator,
    OptimalILPAllocator,
    RandomAllocator,
)
from repro.core.allocator import Allocator
from repro.core.dmra import DMRAAllocator
from repro.core.soa import KERNELS
from repro.dist import FAULT_SCENARIOS as _DIST_FAULT_SCENARIOS
from repro.dist import TRANSPORTS as _DIST_TRANSPORTS
from repro.experiments import (
    EXPERIMENTS,
    Scale,
    all_experiments,
    render_chart,
    render_table,
    write_series_csv,
)
from repro.errors import ConfigurationError
from repro.sim.config import ScenarioConfig
from repro.sim.runner import run_allocation
from repro.sim.scenario import Scenario, build_scenario

__all__ = ["main"]


def main(argv: list[str] | None = None) -> int:
    """Entry point; returns a process exit code."""
    parser = _build_parser()
    args = parser.parse_args(argv)
    if args.command is None:
        parser.print_help()
        return 2
    handler = {
        "figure": _cmd_figure,
        "run": _cmd_run,
        "inspect": _cmd_inspect,
        "compare": _cmd_compare,
        "analyze": _cmd_analyze,
        "agents": _cmd_agents,
        "bound": _cmd_bound,
        "online": _cmd_online,
        "serve": _cmd_serve,
        "report": _cmd_report,
        "mobility": _cmd_mobility,
        "crossover": _cmd_crossover,
        "failures": _cmd_failures,
        "map": _cmd_map,
        "summarize": _cmd_summarize,
        "trace": _cmd_trace,
    }[args.command]
    with _trace_session(args):
        return handler(args)


# Outcome-derived metric families registered by command handlers while
# a --metrics session is active; merged with the trace-derived families
# (outcome wins on name collisions) when the session flushes.
_PENDING_OUTCOME_FAMILIES: list = []


def _manifest_for(args: argparse.Namespace) -> dict:
    """The ``dmra.manifest/1`` of the command about to run."""
    from repro.obs import build_manifest

    config = None
    if hasattr(args, "rho"):
        config = ScenarioConfig.paper(
            placement=getattr(args, "placement", "regular"),
            cross_sp_markup=getattr(args, "iota", 2.0),
            rho=args.rho,
            region_side_m=getattr(args, "region_m", 1200.0),
            bs_per_sp=getattr(args, "bs_per_sp", 5),
        )
    seeds = [args.seed] if hasattr(args, "seed") else []
    return build_manifest(
        config=config, seeds=seeds, command=args.command
    )


@contextmanager
def _trace_session(args: argparse.Namespace):
    """Record a run when ``--trace``/``DMRA_TRACE``/``--metrics`` ask.

    With none set this is a no-op: the null telemetry backend stays
    installed and the command runs uninstrumented.  The recorder's meta
    carries the run manifest, so every written trace and metrics
    document is self-identifying.
    """
    target = getattr(args, "trace", None)
    if target is None:
        env = os.environ.get("DMRA_TRACE", "")
        target = Path(env) if env and args.command != "trace" else None
    metrics_target = getattr(args, "metrics", None)
    if target is None and metrics_target is None:
        yield
        return
    from repro.obs import Recorder, telemetry_session, write_trace

    manifest = _manifest_for(args)
    recorder = Recorder(
        meta={"command": args.command, "manifest": manifest}
    )
    _PENDING_OUTCOME_FAMILIES.clear()
    with telemetry_session(recorder):
        yield
    if target is not None:
        written = write_trace(target, recorder)
        print(f"wrote trace {written}")
    if metrics_target is not None:
        written = _write_metrics_artifact(metrics_target, recorder)
        print(f"wrote metrics {written}")
    _PENDING_OUTCOME_FAMILIES.clear()


@contextmanager
def _live_plane(args: argparse.Namespace, flight=None):
    """Serve ``/metrics`` + health endpoints while the command runs.

    A no-op unless ``--listen`` was given.  When the session is
    otherwise uninstrumented (no ``--trace``/``--metrics``), installs a
    :class:`Recorder` for the duration so the endpoint has scalar state
    to scrape.  On exit: one final flush (so a post-run scrape equals
    the run's totals), then the optional ``--linger`` window, then
    shutdown.  If the command fails, the endpoint is marked failed
    (``/healthz`` and ``/readyz`` answer 503 with the error, the flight
    ring gets its ``failed`` note) and lingers the same way, with no
    final flush, so ``--flush`` never holds a partial run's totals as
    if they were final; then the error propagates.
    """
    listen = getattr(args, "listen", None)
    if listen is None:
        yield None
        return
    from repro.obs import (
        LiveServer,
        Recorder,
        get_telemetry,
        telemetry_session,
    )

    with ExitStack() as stack:
        telemetry = get_telemetry()
        if not telemetry.enabled:
            telemetry = Recorder(
                meta={"command": args.command, "manifest": _manifest_for(args)}
            )
            stack.enter_context(telemetry_session(telemetry))
        live = LiveServer(
            telemetry,
            listen=listen,
            manifest=_manifest_for(args),
            flight=flight,
            flush_path=args.flush,
            flush_interval_s=args.flush_interval,
        ).start()
        stack.callback(live.stop)
        print(f"live endpoint:       {live.url}")
        if args.port_file is not None:
            args.port_file.parent.mkdir(parents=True, exist_ok=True)
            args.port_file.write_text(f"{live.port}\n")
        if args.flush is None:
            # No periodic flusher: readiness means "endpoint warm".
            live.mark_ready()
        try:
            yield live
        except BaseException as exc:
            live.mark_failed(exc)
            raise
        else:
            live.flush_to_disk()
        finally:
            if args.linger > 0:
                time.sleep(args.linger)


def _write_metrics_artifact(target: Path, recorder) -> Path:
    """Flush the session's metrics document (JSON, or ``.prom`` text)."""
    from repro.obs import (
        MetricsDocument,
        metrics_from_trace,
        prometheus_exposition,
        trace_from_recorder,
        write_metrics,
    )

    trace_doc = metrics_from_trace(trace_from_recorder(recorder))
    outcome_names = {fam.name for fam in _PENDING_OUTCOME_FAMILIES}
    families = tuple(sorted(
        list(_PENDING_OUTCOME_FAMILIES)
        + [
            fam for fam in trace_doc.families
            if fam.name not in outcome_names
        ],
        key=lambda fam: fam.name,
    ))
    doc = MetricsDocument(families=families, manifest=trace_doc.manifest)
    if target.suffix in (".prom", ".txt"):
        target.parent.mkdir(parents=True, exist_ok=True)
        target.write_text(prometheus_exposition(doc))
        return target
    return write_metrics(target, doc)


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="dmra",
        description="DMRA (ICDCS 2019) reproduction toolkit",
    )
    sub = parser.add_subparsers(dest="command")

    figure = sub.add_parser(
        "figure", help="reproduce a paper figure or extension experiment"
    )
    figure.add_argument(
        "exp_id",
        help=(
            f"figure id ({', '.join(sorted(all_experiments()))}), "
            f"'all' (paper figures), or 'extensions'"
        ),
    )
    figure.add_argument(
        "--scale",
        choices=("smoke", "paper"),
        default="paper",
        help="sweep size (default: paper)",
    )
    figure.add_argument(
        "--out", type=Path, default=None, help="directory for CSV output"
    )
    figure.add_argument(
        "--workers", type=int, default=None,
        help=(
            "processes for the sweep's (x, seed) grid cells "
            "(default: $DMRA_SWEEP_WORKERS or serial); results are "
            "identical at any worker count"
        ),
    )
    _add_trace_argument(figure)

    for name, help_text in (
        ("run", "run one allocator on one scenario"),
        ("inspect", "describe a generated scenario"),
        ("compare", "run several allocators side by side"),
        ("analyze", "fairness / envy / convergence report for one run"),
    ):
        cmd = sub.add_parser(name, help=help_text)
        _add_scenario_arguments(cmd)
        _add_trace_argument(cmd)
        if name == "run":
            cmd.add_argument(
                "--allocator",
                default="dmra",
                choices=sorted(_ALLOCATOR_BUILDERS),
            )
            cmd.add_argument(
                "--profile", action="store_true",
                help=(
                    "print a per-round phase-time table (proposal vs "
                    "BS-decision wall time; matching-based allocators "
                    "only)"
                ),
            )
            cmd.add_argument(
                "--kernel",
                default="auto",
                choices=list(KERNELS),
                help=(
                    "matching kernel for the dmra allocator: 'object' "
                    "(bit-parity reference engine), 'soa' (structure-"
                    "of-arrays kernel, same assignments, built for "
                    "scale), or 'auto' (soa for plain DMRA, object "
                    "otherwise; the default) — see docs/algorithm.md"
                ),
            )
            cmd.add_argument(
                "--bound", default=None, choices=("lp", "lagrangian"),
                help=(
                    "also certify the run's optimality gap against an "
                    "upper bound on the TPM objective (repro.bound; "
                    "see docs/bounds.md)"
                ),
            )
        if name in ("compare", "analyze"):
            cmd.add_argument(
                "--allocators",
                nargs="+",
                default=(
                    ["dmra", "dcsp", "nonco"]
                    if name == "compare"
                    else ["dmra", "nonco"]
                ),
                choices=sorted(_ALLOCATOR_BUILDERS),
            )

    report = sub.add_parser(
        "report", help="write a markdown comparison report for one scenario"
    )
    _add_scenario_arguments(report)
    report.add_argument(
        "--allocators",
        nargs="+",
        default=["dmra", "dcsp", "nonco"],
        choices=sorted(_ALLOCATOR_BUILDERS),
    )
    report.add_argument(
        "--out", type=Path, default=None,
        help="output file (default: stdout)",
    )

    agents = sub.add_parser(
        "agents",
        help="run DMRA as a true multi-node deployment "
             "(see docs/decentralized.md)",
    )
    _add_scenario_arguments(agents)
    _add_trace_argument(agents)
    agents.add_argument(
        "--transport", default="inproc", choices=list(_DIST_TRANSPORTS),
        help=(
            "message transport: 'inproc' (node objects called in turn "
            "on this thread), 'mp' (forked processes + pipes), 'tcp' "
            "(forked processes + loopback sockets)"
        ),
    )
    agents.add_argument(
        "--ue-hosts", type=int, default=2, metavar="N",
        help="number of UE shard nodes (default 2)",
    )
    agents.add_argument(
        "--faults", default="none", choices=list(_DIST_FAULT_SCENARIOS),
        help=(
            "fault scenario: drop / delay / stale (broadcast-only "
            "delays) / crash (BS crash + recovery); default none"
        ),
    )
    agents.add_argument(
        "--fault-seed", type=int, default=0,
        help="seed of the deterministic fault injector",
    )
    agents.add_argument(
        "--crash-bs", type=int, default=0,
        help="BS id crashed by the 'crash' scenario (default 0)",
    )
    agents.add_argument(
        "--max-rounds", type=int, default=1000,
        help="termination backstop for the round protocol",
    )
    agents.add_argument(
        "--verify", action="store_true",
        help=(
            "also run the direct DMRAAllocator and fail unless the "
            "deployment's assignment is bit-identical (reliable "
            "transports only)"
        ),
    )
    _add_live_arguments(agents)
    agents.add_argument(
        "--flight-dir", type=Path, default=None, metavar="DIR",
        help=(
            "write per-node flight-recorder postmortems (ring-buffer "
            "dumps captured at crash time under '--faults crash') as "
            "JSON files into DIR"
        ),
    )

    bound = sub.add_parser(
        "bound",
        help=(
            "certify the optimality gap of an allocation against "
            "LP/Lagrangian upper bounds (see docs/bounds.md)"
        ),
    )
    _add_scenario_arguments(bound)
    _add_trace_argument(bound)
    bound.add_argument(
        "--method", default="lagrangian",
        choices=("lp", "lagrangian", "both"),
        help=(
            "upper-bound method: 'lagrangian' (per-BS dual "
            "decomposition, scales to 100k+ UEs), 'lp' (HiGHS LP "
            "relaxation, exact but variable-capped), or 'both'"
        ),
    )
    bound.add_argument(
        "--allocator", default="dmra",
        choices=sorted(_ALLOCATOR_BUILDERS),
        help="the incumbent whose gap is certified (default: dmra)",
    )
    bound.add_argument(
        "--baselines", nargs="*", default=[],
        choices=sorted(_ALLOCATOR_BUILDERS),
        help=(
            "also run these allocators and report their profit "
            "against the same bound"
        ),
    )
    bound.add_argument(
        "--iterations", type=int, default=150,
        help="subgradient iteration budget for the Lagrangian bound",
    )
    bound.add_argument(
        "--lp-max-variables", type=int, default=500_000,
        help="refuse the LP bound above this many candidate variables",
    )

    online = sub.add_parser(
        "online", help="event-driven simulation with arrivals/departures"
    )
    online.add_argument("--rate", type=float, default=3.0,
                        help="Poisson arrival rate (tasks/s)")
    online.add_argument("--horizon", type=float, default=600.0,
                        help="simulated horizon in seconds")
    online.add_argument("--holding", type=float, default=120.0,
                        help="mean task holding time in seconds")
    online.add_argument("--seed", type=int, default=0)
    online.add_argument("--rho", type=float, default=10.0)
    online.add_argument("--iota", type=float, default=2.0)
    online.add_argument(
        "--kernel", default="object", choices=list(KERNELS),
        help=(
            "matching kernel for the per-batch solves: 'object' (the "
            "bit-parity reference, the default), 'soa', or 'auto' "
            "— see docs/algorithm.md"
        ),
    )
    _add_trace_argument(online)

    serve = sub.add_parser(
        "serve",
        help=(
            "long-lived streaming allocation: replay a churn tape "
            "through the event-driven engine (see docs/streaming.md)"
        ),
    )
    serve.add_argument("--rate", type=float, default=3.0,
                       help="Poisson arrival rate (tasks/s)")
    serve.add_argument("--horizon", type=float, default=600.0,
                       help="simulated horizon in seconds")
    serve.add_argument("--holding", type=float, default=120.0,
                       help="mean task holding time in seconds")
    serve.add_argument("--move-fraction", type=float, default=0.0,
                       help="fraction of tasks making one mid-life move")
    serve.add_argument("--seed", type=int, default=0)
    serve.add_argument("--rho", type=float, default=10.0)
    serve.add_argument("--iota", type=float, default=2.0)
    serve.add_argument(
        "--kernel", default="auto", choices=list(KERNELS),
        help="matching kernel for the re-match batches",
    )
    serve.add_argument(
        "--queue", type=int, default=256, metavar="N",
        help="service-loop queue bound (backpressure threshold)",
    )
    serve.add_argument(
        "--trace", type=Path, default=None, metavar="FILE",
        help=(
            "record a JSONL telemetry trace of this run to FILE; "
            "render it with 'dmra trace'"
        ),
    )
    # dest differs from the shared --metrics on purpose: serve writes an
    # *outcome-only* document (metrics_from_stream), never the merged
    # trace-derived families, because trace mechanics (match spans,
    # rematch timers) differ from a from-scratch replay of the same
    # tape, whose outcome document must diff clean against this one.
    serve.add_argument(
        "--metrics", dest="metrics_out", type=Path, default=None,
        metavar="FILE",
        help=(
            "write the replay's outcome-only dmra.metrics/1 document "
            "to FILE; compare two with 'dmra trace diff'"
        ),
    )
    _add_live_arguments(serve)
    serve.add_argument(
        "--flight-dump", type=Path, default=None, metavar="FILE",
        help=(
            "write the flight recorder's ring (last events before "
            "completion or failure) as a JSON postmortem to FILE"
        ),
    )

    mobility = sub.add_parser(
        "mobility", help="epoch-based movement with handover accounting"
    )
    _add_scenario_arguments(mobility)
    mobility.add_argument("--epochs", type=int, default=10)
    mobility.add_argument("--epoch-duration", type=float, default=30.0,
                          help="epoch length in seconds")
    mobility.add_argument("--speed", type=float, default=1.5,
                          help="UE speed in m/s (random walk)")
    mobility.add_argument("--no-sticky", action="store_true",
                          help="re-optimize everyone every epoch")
    _add_trace_argument(mobility)

    failures = sub.add_parser(
        "failures", help="inject BS outages and report the recovery"
    )
    _add_scenario_arguments(failures)
    failures.add_argument(
        "--bs", type=int, nargs="+", required=True,
        help="ids of the base stations to fail",
    )
    _add_trace_argument(failures)

    crossover = sub.add_parser(
        "crossover",
        help="bisect the load where one scheme overtakes another",
    )
    crossover.add_argument("--a", default="dmra",
                           choices=sorted(_ALLOCATOR_BUILDERS))
    crossover.add_argument("--b", default="nonco",
                           choices=sorted(_ALLOCATOR_BUILDERS))
    crossover.add_argument("--lo", type=int, default=600)
    crossover.add_argument("--hi", type=int, default=1600)
    crossover.add_argument("--seed", type=int, default=0)
    crossover.add_argument("--tolerance", type=int, default=25)

    svg_map = sub.add_parser(
        "map", help="write the deployment/association as an SVG file"
    )
    _add_scenario_arguments(svg_map)
    svg_map.add_argument("--out", type=Path, required=True)
    svg_map.add_argument("--coverage", action="store_true",
                         help="draw coverage circles")
    svg_map.add_argument(
        "--allocator", default="dmra",
        choices=sorted(_ALLOCATOR_BUILDERS),
    )

    summarize = sub.add_parser(
        "summarize",
        help="render stored result CSVs as charts and tables",
    )
    summarize.add_argument(
        "--results",
        type=Path,
        default=Path("benchmarks/results/paper"),
        help="directory of CSVs written by the benches",
    )
    summarize.add_argument(
        "--only", nargs="+", default=None,
        help="experiment ids to include (default: everything found)",
    )

    trace = sub.add_parser(
        "trace",
        help=(
            "trace tooling: 'trace FILE' / 'trace report FILE' render a "
            "report, 'trace report FILE --top N' ranks the hottest "
            "spans by self time, 'trace metrics FILE' derives "
            "dmra.metrics documents, 'trace diff A B' compares two "
            "runs (nonzero exit on regressions)"
        ),
    )
    trace.add_argument(
        "args", nargs="+", metavar="ARG",
        help="FILE | report FILE | metrics FILE | diff BASELINE CANDIDATE",
    )
    trace.add_argument(
        "--min-ms", type=float, default=0.0,
        help="hide (non-root) spans shorter than this many milliseconds",
    )
    trace.add_argument(
        "--top", type=int, default=0, metavar="N",
        help=(
            "report: print the N hottest span names ranked by "
            "cumulative self time instead of the span tree"
        ),
    )
    trace.add_argument(
        "--format", choices=("json", "prom"), default="json",
        help="output format for 'trace metrics' (default: json)",
    )
    trace.add_argument(
        "--out", type=Path, default=None,
        help="write 'trace metrics' output to a file instead of stdout",
    )
    trace.add_argument(
        "--abs-tol", type=float, default=1e-9,
        help="diff: absolute tolerance per sample (default: 1e-9)",
    )
    trace.add_argument(
        "--rel-tol", type=float, default=0.0,
        help="diff: relative tolerance per sample (default: 0)",
    )
    trace.add_argument(
        "--include-timing", action="store_true",
        help="diff: also gate on timing families (dmra_timer_*/dmra_wall_*)",
    )
    trace.add_argument(
        "--allow-mismatch", action="store_true",
        help=(
            "diff: compare runs with different config digests or seeds "
            "(deltas are reported as changes, not regressions)"
        ),
    )
    return parser


def _add_trace_argument(cmd: argparse.ArgumentParser) -> None:
    cmd.add_argument(
        "--trace", type=Path, default=None, metavar="FILE",
        help=(
            "record a JSONL telemetry trace of this run to FILE "
            "(default: $DMRA_TRACE if set); render it with 'dmra trace'"
        ),
    )
    cmd.add_argument(
        "--metrics", type=Path, default=None, metavar="FILE",
        help=(
            "write this run's dmra.metrics/1 document to FILE "
            "(.prom/.txt suffix selects Prometheus text exposition); "
            "compare runs with 'dmra trace diff'"
        ),
    )


def _add_live_arguments(cmd: argparse.ArgumentParser) -> None:
    """The live observability plane (docs/observability.md, Live plane)."""
    cmd.add_argument(
        "--listen", default=None, metavar="HOST:PORT",
        help=(
            "expose /metrics, /healthz, /readyz (and /flightz where a "
            "flight recorder is attached) on HOST:PORT while the "
            "command runs; port 0 binds an ephemeral port"
        ),
    )
    cmd.add_argument(
        "--flush", type=Path, default=None, metavar="FILE",
        help=(
            "with --listen: periodically flush the live metrics "
            "snapshot to FILE (dmra.metrics JSON)"
        ),
    )
    cmd.add_argument(
        "--flush-interval", type=float, default=1.0, metavar="S",
        help="seconds between periodic --flush snapshots (default 1.0)",
    )
    cmd.add_argument(
        "--linger", type=float, default=0.0, metavar="S",
        help=(
            "with --listen: keep the endpoint up for S seconds after "
            "the run completes so scrapers can read the final totals"
        ),
    )
    cmd.add_argument(
        "--port-file", type=Path, default=None, metavar="FILE",
        help=(
            "with --listen: write the actually-bound port to FILE "
            "once the endpoint is up (for drivers using port 0)"
        ),
    )


def _add_scenario_arguments(cmd: argparse.ArgumentParser) -> None:
    cmd.add_argument("--ues", type=int, default=600, help="number of UEs")
    cmd.add_argument("--seed", type=int, default=0)
    cmd.add_argument(
        "--placement", choices=("regular", "random", "clustered"),
        default="regular",
    )
    cmd.add_argument("--iota", type=float, default=2.0, help="cross-SP markup")
    cmd.add_argument("--rho", type=float, default=10.0, help="DMRA rho weight")
    cmd.add_argument(
        "--region-m", type=float, default=1200.0,
        help="square region side in meters (default: the paper's 1200)",
    )
    cmd.add_argument(
        "--bs-per-sp", type=int, default=5,
        help="BSs deployed per SP (default: the paper's 5)",
    )


def _scenario_from_args(args: argparse.Namespace) -> Scenario:
    config = ScenarioConfig.paper(
        placement=args.placement,
        cross_sp_markup=args.iota,
        rho=args.rho,
        region_side_m=getattr(args, "region_m", 1200.0),
        bs_per_sp=getattr(args, "bs_per_sp", 5),
    )
    return build_scenario(config, ue_count=args.ues, seed=args.seed)


_ALLOCATOR_BUILDERS = {
    "dmra": lambda sc: DMRAAllocator(pricing=sc.pricing, rho=sc.config.rho),
    "dcsp": lambda sc: DCSPAllocator(),
    "nonco": lambda sc: NonCoAllocator(),
    "greedy": lambda sc: GreedyProfitAllocator(pricing=sc.pricing),
    "random": lambda sc: RandomAllocator(seed=sc.seed),
    "cloud-only": lambda sc: CloudOnlyAllocator(),
    "ilp": lambda sc: OptimalILPAllocator(pricing=sc.pricing),
    "best-response": lambda sc: BestResponseAllocator(pricing=sc.pricing),
    # rho doubles as the congestion weight: like DMRA's slack term, it
    # prices load into the potential-game cost (beta=0 is best-response).
    "potential-game": lambda sc: BestResponseAllocator(
        pricing=sc.pricing, load_weight=max(sc.config.rho / 10.0, 0.1)
    ),
    "auction": lambda sc: AuctionAllocator(pricing=sc.pricing),
}


def _build_allocator(name: str, scenario: Scenario) -> Allocator:
    return _ALLOCATOR_BUILDERS[name](scenario)


def _cmd_figure(args: argparse.Namespace) -> int:
    from repro.experiments import EXTENSIONS

    scale = Scale.paper() if args.scale == "paper" else Scale.smoke()
    registry = all_experiments()
    if args.exp_id == "all":
        exp_ids = sorted(EXPERIMENTS)
    elif args.exp_id == "extensions":
        exp_ids = sorted(EXTENSIONS)
    else:
        exp_ids = [args.exp_id]
    for exp_id in exp_ids:
        if exp_id not in registry:
            raise ConfigurationError(
                f"unknown experiment {exp_id!r}; "
                f"available: {sorted(registry)}"
            )
        experiment = registry[exp_id]
        print(f"running {experiment.exp_id}: {experiment.title}")
        result = experiment.run(scale, workers=args.workers)
        series = [result[label] for label in result.labels()]
        print(render_chart(
            series,
            title=experiment.title,
            x_label=experiment.x_label,
            y_label=experiment.y_label,
        ))
        print()
        print(render_table(series, x_header=experiment.x_label))
        print()
        if args.out is not None:
            path = write_series_csv(
                args.out / f"{exp_id}.csv", series, x_header=experiment.x_label
            )
            print(f"wrote {path}")
    return 0


def _matching_policy_for(name: str, scenario: Scenario):
    """The :class:`MatchingPolicy` behind a matching-based allocator."""
    from repro.baselines.dcsp import DCSPPolicy
    from repro.core.dmra import DMRAPolicy

    if name == "dmra":
        return DMRAPolicy(pricing=scenario.pricing, rho=scenario.config.rho)
    if name == "dcsp":
        return DCSPPolicy()
    raise ConfigurationError(
        f"--profile needs a matching-based allocator (dmra, dcsp), "
        f"got {name!r}"
    )


def _cmd_run(args: argparse.Namespace) -> int:
    # `wall time` spans scenario build through accounting.
    start = time.perf_counter()
    scenario = _scenario_from_args(args)
    allocator = _build_allocator(args.allocator, scenario)
    if args.allocator == "dmra":
        allocator.kernel = getattr(args, "kernel", "auto")
    outcome = run_allocation(scenario, allocator)
    wall_time_s = time.perf_counter() - start
    metrics = outcome.metrics
    if getattr(args, "metrics", None) is not None:
        from repro.obs import metrics_from_outcome

        _PENDING_OUTCOME_FAMILIES.extend(metrics_from_outcome(
            scenario.network, outcome.assignment, scenario.pricing,
            wall_time_s=outcome.wall_time_s,
        ).families)
    print(scenario.network.describe())
    print(f"allocator:          {outcome.allocator_name}")
    print(f"total profit:       {metrics.total_profit:.1f}")
    for sp_id, profit in sorted(metrics.profit_by_sp.items()):
        print(f"  SP {sp_id} profit:      {profit:.1f}")
    print(f"edge served:        {metrics.edge_served}/{metrics.ue_count}")
    print(f"cloud forwarded:    {metrics.cloud_forwarded}")
    print(f"forwarded traffic:  {metrics.forwarded_traffic_bps / 1e6:.1f} Mbps")
    print(f"same-SP fraction:   {metrics.same_sp_fraction:.2f}")
    print(f"mean RRB util:      {metrics.mean_rrb_utilization:.2f}")
    print(f"mean CRU util:      {metrics.mean_cru_utilization:.2f}")
    print(f"matching rounds:    {metrics.rounds}")
    print(f"allocation time:    {outcome.wall_time_s * 1e3:.1f} ms")
    print(f"wall time:          {wall_time_s * 1e3:.1f} ms")
    if getattr(args, "bound", None) is not None:
        from repro.bound import certify_gap

        certificate = certify_gap(
            scenario.network,
            scenario.radio_map,
            scenario.pricing,
            incumbent_profit=metrics.total_profit,
            method=args.bound,
        )
        print(f"upper bound:        {certificate.upper_bound:.1f} "
              f"({certificate.method}, "
              f"{certificate.iterations} iterations)")
        print(f"certified gap:      {certificate.gap_fraction * 100:.2f}%")
        if getattr(args, "metrics", None) is not None:
            from repro.obs import metrics_from_certificates

            _PENDING_OUTCOME_FAMILIES.extend(
                metrics_from_certificates([certificate]).families
            )
    if getattr(args, "profile", False):
        _print_phase_profile(
            args.allocator, scenario, getattr(allocator, "kernel", "object")
        )
    return 0


def _cmd_bound(args: argparse.Namespace) -> int:
    """``dmra bound``: certify an allocation's optimality gap."""
    from repro.bound import certify_gap

    scenario = _scenario_from_args(args)
    allocator = _build_allocator(args.allocator, scenario)
    outcome = run_allocation(scenario, allocator)
    incumbent = outcome.metrics.total_profit
    methods = (
        ("lp", "lagrangian") if args.method == "both" else (args.method,)
    )
    certificates = [
        certify_gap(
            scenario.network,
            scenario.radio_map,
            scenario.pricing,
            incumbent_profit=incumbent,
            method=method,
            max_iterations=args.iterations,
            lp_max_variables=args.lp_max_variables,
        )
        for method in methods
    ]
    baseline_profits: dict[str, float] = {}
    for name in dict.fromkeys(args.baselines):
        if name == args.allocator:
            continue
        baseline = run_allocation(
            scenario, _build_allocator(name, scenario)
        )
        baseline_profits[name] = baseline.metrics.total_profit
    print(scenario.network.describe())
    print(f"incumbent:          {outcome.allocator_name}")
    print(f"incumbent profit:   {incumbent:.1f}")
    for certificate in certificates:
        flag = "" if certificate.converged else " (budget hit)"
        print(f"{certificate.method + ' bound:':<20}"
              f"{certificate.upper_bound:.1f} "
              f"[{certificate.iterations} iterations, "
              f"{certificate.wall_time_s * 1e3:.1f} ms]{flag}")
        print(f"  certified gap:    {certificate.gap_fraction * 100:.2f}%")
    for name, profit in sorted(baseline_profits.items()):
        ratio = profit / incumbent if incumbent else float("nan")
        print(f"  {name + ':':<18}{profit:.1f} ({ratio:.2f}x incumbent)")
    if getattr(args, "metrics", None) is not None:
        from repro.obs import metrics_from_certificates

        _PENDING_OUTCOME_FAMILIES.extend(metrics_from_certificates(
            certificates, baseline_profits or None
        ).families)
    return 0


def _print_phase_profile(name: str, scenario: Scenario, kernel: str) -> None:
    """Re-run the matching under an observer and print phase timings.

    The re-run picks its engine with the ``kernel`` the allocator used
    (DCSP runs on the object engine), so the table times the kernel that
    produced the printed allocation.
    """
    from repro.analysis import ConvergenceTrace
    from repro.core.soa import make_matching_engine

    policy = _matching_policy_for(name, scenario)
    rounds: list = []
    assignment = make_matching_engine(policy, kernel=kernel).run(
        scenario.network, scenario.radio_map, observer=rounds.append
    )
    trace = ConvergenceTrace(rounds=tuple(rounds), assignment=assignment)
    print()
    print("per-round phase profile (propose = Alg. 1 lines 3-10, "
          "accept = lines 12-25):")
    header = (
        f"{'round':>6} {'proposals':>10} {'accepted':>9} {'cloud':>6} "
        f"{'propose ms':>11} {'accept ms':>10}"
    )
    print(header)
    print("-" * len(header))
    for stats in trace.rounds:
        print(
            f"{stats.round_number:>6} {stats.proposals:>10} "
            f"{stats.accepted:>9} {stats.newly_cloud:>6} "
            f"{stats.propose_time_s * 1e3:>11.2f} "
            f"{stats.accept_time_s * 1e3:>10.2f}"
        )
    propose_total = sum(s.propose_time_s for s in trace.rounds)
    accept_total = sum(s.accept_time_s for s in trace.rounds)
    print(
        f"{'total':>6} {trace.total_proposals:>10} "
        f"{trace.total_accepted:>9} {'':>6} "
        f"{propose_total * 1e3:>11.2f} {accept_total * 1e3:>10.2f}"
    )


def _cmd_inspect(args: argparse.Namespace) -> int:
    scenario = _scenario_from_args(args)
    network = scenario.network
    print(network.describe())
    print(f"seed: {scenario.seed}")
    print("per-SP deployments:")
    for sp in network.providers:
        bss = network.base_stations_of_sp(sp.sp_id)
        ues = network.user_equipments_of_sp(sp.sp_id)
        print(
            f"  {sp.name}: {len(bss)} BSs, {len(ues)} subscribers, "
            f"m_k={sp.cru_price}, m_k^o={sp.other_cost}"
        )
    uncovered = sum(
        1
        for ue in network.user_equipments
        if not network.candidate_base_stations(ue.ue_id)
    )
    print(f"UEs with no candidate BS: {uncovered}")
    total_rrbs = sum(bs.rrb_capacity for bs in network.base_stations)
    total_crus = sum(bs.total_cru_capacity for bs in network.base_stations)
    print(f"aggregate capacity: {total_rrbs} RRBs, {total_crus} CRUs")
    return 0


def _cmd_compare(args: argparse.Namespace) -> int:
    scenario = _scenario_from_args(args)
    print(scenario.network.describe())
    header = (
        f"{'allocator':<12} {'profit':>10} {'edge':>6} {'cloud':>6} "
        f"{'sameSP':>7} {'fwd Mbps':>9} {'rounds':>7} {'ms':>8}"
    )
    print(header)
    print("-" * len(header))
    for name in args.allocators:
        outcome = run_allocation(
            scenario, _build_allocator(name, scenario)
        )
        m = outcome.metrics
        print(
            f"{name:<12} {m.total_profit:>10.1f} {m.edge_served:>6} "
            f"{m.cloud_forwarded:>6} {m.same_sp_fraction:>7.2f} "
            f"{m.forwarded_traffic_bps / 1e6:>9.1f} {m.rounds:>7} "
            f"{outcome.wall_time_s * 1e3:>8.1f}"
        )
    return 0


def _cmd_analyze(args: argparse.Namespace) -> int:
    from repro.analysis import (
        analyze_stability,
        fairness_report,
        render_network_map,
        trace_convergence,
    )
    from repro.core.dmra import DMRAPolicy

    scenario = _scenario_from_args(args)
    print(scenario.network.describe())
    for name in args.allocators:
        allocator = _build_allocator(name, scenario)
        outcome = run_allocation(scenario, allocator)
        assignment = outcome.assignment
        stability = analyze_stability(
            scenario.network, scenario.radio_map, assignment, scenario.pricing
        )
        fairness = fairness_report(
            scenario.network, outcome.metrics.profit_by_sp
        )
        print(f"\n=== {name} ===")
        print(f"total profit:      {outcome.metrics.total_profit:.1f}")
        print(f"edge / cloud:      {assignment.edge_served_count} / "
              f"{assignment.cloud_count}")
        print(f"envy pairs:        {stability.envy_count} "
              f"({stability.envy_fraction:.1%} of served)")
        print(f"stranded UEs:      {stability.stranded_count}")
        print(f"Jain fairness:     {fairness.jain:.4f} "
              f"(per-subscriber {fairness.jain_per_subscriber:.4f})")
        if name == "dmra":
            trace = trace_convergence(
                DMRAPolicy(pricing=scenario.pricing, rho=args.rho),
                scenario.network,
                scenario.radio_map,
            )
            print(f"rounds:            {trace.round_count} "
                  f"(95% associated by round "
                  f"{trace.rounds_to_fraction(0.95)})")
            print(f"signalling:        {trace.total_proposals} proposals, "
                  f"{trace.proposals_per_association:.2f} per association")
    dmra_assignment = run_allocation(
        scenario, _build_allocator("dmra", scenario)
    ).assignment
    print()
    print(render_network_map(scenario.network, dmra_assignment))
    return 0


def _cmd_report(args: argparse.Namespace) -> int:
    from repro.analysis import scenario_report

    scenario = _scenario_from_args(args)
    allocators = [
        _build_allocator(name, scenario) for name in args.allocators
    ]
    report = scenario_report(scenario, allocators)
    if args.out is not None:
        args.out.parent.mkdir(parents=True, exist_ok=True)
        args.out.write_text(report)
        print(f"wrote {args.out}")
    else:
        print(report)
    return 0


def _cmd_agents(args: argparse.Namespace) -> int:
    from repro.dist import DistributedDMRAAllocator, scenario_plan

    scenario = _scenario_from_args(args)
    plan = scenario_plan(
        args.faults, seed=args.fault_seed, crash_bs_id=args.crash_bs
    )
    allocator = DistributedDMRAAllocator(
        transport=args.transport,
        pricing=scenario.pricing,
        rho=scenario.config.rho,
        ue_hosts=args.ue_hosts,
        fault_plan=plan,
        max_rounds=args.max_rounds,
        flight_dir=args.flight_dir,
    )
    with _live_plane(args):
        outcome = run_allocation(scenario, allocator)
    metrics = outcome.metrics
    if getattr(args, "metrics", None) is not None:
        from repro.obs import metrics_from_outcome

        _PENDING_OUTCOME_FAMILIES.extend(metrics_from_outcome(
            scenario.network, outcome.assignment, scenario.pricing,
            wall_time_s=outcome.wall_time_s,
        ).families)
    report = allocator.last_report
    print(scenario.network.describe())
    print(f"deployment:         {allocator.name} "
          f"({args.ue_hosts} UE hosts, faults={args.faults})")
    print(f"total profit:       {metrics.total_profit:.1f}")
    print(f"edge / cloud:       {metrics.edge_served} / "
          f"{len(outcome.assignment.cloud_ue_ids)}")
    print(f"rounds:             {report['rounds']} productive "
          f"/ {report['total_rounds']} protocol")
    total_msgs = sum(report["messages"].values())
    total_bytes = sum(report["bytes"].values())
    print(f"messages:           {total_msgs} ({total_bytes} bytes)")
    for kind in sorted(report["messages"]):
        print(f"  {kind:<8} {report['messages'][kind]:>8} msgs "
              f"{report['bytes'][kind]:>10} bytes")
    if args.flight_dir is not None and report.get("postmortems"):
        names = ", ".join(sorted(report["postmortems"]))
        print(f"flight postmortems: {names} -> {args.flight_dir}")
    if plan is not None:
        print(f"faults:             {report['faults']}")
        retx = sum(s["retransmits"] for s in report["sp"].values())
        print(f"sp retransmits:     {retx}")
        print(f"regrants:           {report['regrants']}")
        print(f"orphans -> cloud:   {report['orphans']}")
    if args.verify:
        direct = DMRAAllocator(
            pricing=scenario.pricing, rho=scenario.config.rho
        ).allocate(scenario.network, scenario.radio_map)
        same = (
            sorted(direct.association_pairs())
            == sorted(outcome.assignment.association_pairs())
            and direct.cloud_ue_ids == outcome.assignment.cloud_ue_ids
            and direct.rounds == outcome.assignment.rounds
        )
        print(f"verify vs direct:   {'bit-identical' if same else 'MISMATCH'}")
        if not same:
            return 1
    return 0


def _cmd_online(args: argparse.Namespace) -> int:
    from repro.dynamics import (
        ExponentialHolding,
        OnlineConfig,
        PoissonArrivals,
        run_online,
    )

    config = ScenarioConfig.paper(cross_sp_markup=args.iota, rho=args.rho)
    online = OnlineConfig(
        horizon_s=args.horizon,
        arrivals=PoissonArrivals(rate_per_s=args.rate),
        holding=ExponentialHolding(mean_s=args.holding),
    )
    outcome = run_online(config, online, seed=args.seed, kernel=args.kernel)
    if getattr(args, "metrics", None) is not None:
        from repro.obs import metrics_from_online

        _PENDING_OUTCOME_FAMILIES.extend(
            metrics_from_online(outcome).families
        )
    print(f"deployment:          {config.sp_count} SPs x "
          f"{config.bs_per_sp} BSs/SP over "
          f"{config.region_side_m:.0f} m x {config.region_side_m:.0f} m "
          f"(kernel: {args.kernel})")
    print(f"horizon:             {args.horizon:.0f} s, "
          f"rate {args.rate}/s, mean holding {args.holding:.0f} s")
    print(f"offered load:        ~{args.rate * args.holding:.0f} "
          f"concurrent tasks")
    print(f"arrivals:            {outcome.arrivals}")
    print(f"edge admitted:       {outcome.admitted_edge}")
    print(f"cloud (blocked):     {outcome.admitted_cloud}")
    print(f"blocking prob.:      {outcome.blocking_probability:.3f}")
    print(f"profit rate:         {outcome.profit_rate_per_s:.2f}/s")
    print(f"mean active (edge):  {outcome.mean_edge_active:.1f}")
    print(f"peak active (edge):  {outcome.edge_active.peak:.0f}")
    print(f"mean RRB util:       {outcome.mean_rrb_utilization:.1%}")
    return 0


def _cmd_serve(args: argparse.Namespace) -> int:
    from repro.dynamics import ExponentialHolding, PoissonArrivals
    from repro.obs import FlightRecorder
    from repro.stream import StreamConfig, serve_stream

    config = ScenarioConfig.paper(cross_sp_markup=args.iota, rho=args.rho)
    stream = StreamConfig(
        horizon_s=args.horizon,
        arrivals=PoissonArrivals(rate_per_s=args.rate),
        holding=ExponentialHolding(mean_s=args.holding),
        move_fraction=args.move_fraction,
    )
    flight = (
        FlightRecorder()
        if args.listen is not None or args.flight_dump is not None
        else None
    )
    try:
        with _live_plane(args, flight=flight):
            outcome = serve_stream(
                config,
                stream,
                seed=args.seed,
                kernel=args.kernel,
                queue_maxsize=args.queue,
                flight=flight,
            )
    except BaseException as exc:
        # A failed replay leaves its last events as evidence and no
        # metrics document that looks complete; the error propagates.
        # With --listen, the live plane's mark_failed notes it.
        if flight is not None and args.listen is None:
            flight.note("failed", error=repr(exc))
        raise
    finally:
        if args.flight_dump is not None:
            flight.dump_to(args.flight_dump)
            print(f"wrote flight dump {args.flight_dump}")
    if args.metrics_out is not None:
        from repro.obs import metrics_from_stream, write_metrics

        doc = metrics_from_stream(outcome, manifest=_manifest_for(args))
        written = write_metrics(args.metrics_out, doc)
        print(f"wrote metrics {written}")
    print(f"stream replay:       kernel={outcome.kernel}")
    print(f"horizon:             {args.horizon:.0f} s, rate {args.rate}/s, "
          f"mean holding {args.holding:.0f} s, "
          f"move fraction {args.move_fraction:.2f}")
    print(f"events:              {outcome.events_processed} "
          f"({outcome.arrivals} arrivals, {outcome.departures} "
          f"departures, {outcome.moves} moves)")
    print(f"edge admitted:       {outcome.admitted_edge}")
    print(f"cloud (blocked):     {outcome.admitted_cloud}")
    print(f"readmitted:          {outcome.readmitted}")
    print(f"blocking prob.:      {outcome.blocking_probability:.3f}")
    print(f"profit rate:         {outcome.profit_rate_per_s:.2f}/s")
    print(f"peak active:         {outcome.peak_active} "
          f"({outcome.peak_edge_active} at the edge)")
    print(f"throughput:          {outcome.events_per_s:.0f} events/s "
          f"({outcome.wall_s:.2f} s wall)")
    print(f"digest:              {outcome.digest}")
    return 0


def _cmd_mobility(args: argparse.Namespace) -> int:
    from repro.dynamics import RandomWalk, run_mobility

    config = ScenarioConfig.paper(
        placement=args.placement, cross_sp_markup=args.iota, rho=args.rho
    )
    outcome = run_mobility(
        config,
        ue_count=args.ues,
        epochs=args.epochs,
        epoch_duration_s=args.epoch_duration,
        seed=args.seed,
        mobility=RandomWalk(speed_mps=args.speed),
        sticky=not args.no_sticky,
    )
    mode = "re-optimize" if args.no_sticky else "sticky"
    print(f"mobility run ({mode}), {args.ues} UEs, "
          f"{args.epochs} x {args.epoch_duration:.0f} s epochs, "
          f"{args.speed} m/s")
    print(f"{'epoch':>6} {'profit':>9} {'handovers':>10} "
          f"{'drops':>6} {'cloud':>6}")
    for record in outcome.records:
        print(f"{record.epoch:>6} {record.total_profit:>9.0f} "
              f"{record.handovers:>10} {record.drops_to_cloud:>6} "
              f"{record.cloud:>6}")
    print(f"mean profit {outcome.mean_profit:.0f}, "
          f"handover rate {outcome.handover_rate:.3f}/UE/epoch")
    return 0


def _cmd_failures(args: argparse.Namespace) -> int:
    from repro.dynamics import inject_bs_failures

    config = ScenarioConfig.paper(
        placement=args.placement, cross_sp_markup=args.iota, rho=args.rho
    )
    outcome = inject_bs_failures(
        config, ue_count=args.ues, failed_bs_ids=args.bs, seed=args.seed
    )
    print(f"failed BSs:        {list(outcome.failed_bs_ids)}")
    print(f"orphaned UEs:      {outcome.orphaned_ues}")
    print(f"recovered at edge: {outcome.recovered_ues} "
          f"({outcome.recovery_fraction:.0%})")
    print(f"dropped to cloud:  {outcome.dropped_to_cloud}")
    print(f"profit before:     {outcome.profit_before:.1f}")
    print(f"profit after:      {outcome.profit_after:.1f} "
          f"(-{outcome.profit_loss_fraction:.1%})")
    print(f"edge served:       {outcome.edge_served_before} -> "
          f"{outcome.edge_served_after}")
    return 0


def _cmd_trace(args: argparse.Namespace) -> int:
    # The trace family is an inspection tool over user-supplied files:
    # bad input gets a one-line error and a nonzero exit, never a
    # traceback.
    try:
        return _dispatch_trace(args)
    except ConfigurationError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


def _dispatch_trace(args: argparse.Namespace) -> int:
    head, rest = args.args[0], args.args[1:]
    if head == "diff":
        if len(rest) != 2:
            raise ConfigurationError(
                "usage: dmra trace diff BASELINE CANDIDATE"
            )
        return _trace_diff(args, Path(rest[0]), Path(rest[1]))
    if head == "metrics":
        if len(rest) != 1:
            raise ConfigurationError("usage: dmra trace metrics FILE")
        return _trace_metrics(args, Path(rest[0]))
    if head == "report":
        if len(rest) != 1:
            raise ConfigurationError(
                "usage: dmra trace report FILE [--top N]"
            )
        head = rest[0]
    elif rest:
        raise ConfigurationError(
            f"unknown trace subcommand {head!r}; expected a trace file, "
            f"'report FILE', 'metrics FILE', or "
            f"'diff BASELINE CANDIDATE'"
        )
    from repro.obs import read_trace, render_top_spans, render_trace_report

    trace = read_trace(Path(head))
    if args.top > 0:
        print(render_top_spans(trace, top=args.top), end="")
    else:
        print(render_trace_report(trace, min_ms=args.min_ms), end="")
    return 0


def _load_metrics_document(path: Path):
    """Load a ``dmra.metrics/1`` doc — directly, or derived from a trace."""
    import json as _json

    from repro.obs import (
        METRICS_SCHEMA,
        METRICS_SCHEMA_V2,
        SCHEMA as TRACE_SCHEMA,
        SCHEMA_V2 as TRACE_SCHEMA_V2,
        metrics_from_trace,
        parse_metrics,
        parse_trace,
    )

    try:
        text = path.read_text()
    except OSError as exc:
        raise ConfigurationError(f"cannot read {path}: {exc}") from exc
    first_line = text.strip().splitlines()[0] if text.strip() else ""
    try:
        header = _json.loads(first_line)
    except _json.JSONDecodeError as exc:
        raise ConfigurationError(
            f"{path}: not a dmra trace or metrics file "
            f"(first line is not JSON: {exc})"
        ) from exc
    schema = header.get("schema") if isinstance(header, dict) else None
    if schema in (METRICS_SCHEMA, METRICS_SCHEMA_V2):
        return parse_metrics(text)
    if schema in (TRACE_SCHEMA, TRACE_SCHEMA_V2):
        return metrics_from_trace(parse_trace(text))
    raise ConfigurationError(
        f"{path}: unsupported schema {schema!r}; expected "
        f"{METRICS_SCHEMA!r}/{METRICS_SCHEMA_V2!r} or "
        f"{TRACE_SCHEMA!r}/{TRACE_SCHEMA_V2!r}"
    )


def _trace_metrics(args: argparse.Namespace, source: Path) -> int:
    from repro.obs import metrics_json, prometheus_exposition

    doc = _load_metrics_document(source)
    rendered = (
        prometheus_exposition(doc)
        if args.format == "prom" else metrics_json(doc) + "\n"
    )
    if args.out is not None:
        args.out.parent.mkdir(parents=True, exist_ok=True)
        args.out.write_text(rendered)
        print(f"wrote {args.out}")
    else:
        print(rendered, end="")
    return 0


def _trace_diff(
    args: argparse.Namespace, baseline: Path, candidate: Path
) -> int:
    from repro.obs import (
        DiffTolerances,
        diff_documents,
        render_diff_report,
    )

    tolerances = DiffTolerances(
        abs_tol=args.abs_tol,
        rel_tol=args.rel_tol,
        ignore_prefixes=(
            () if args.include_timing
            else DiffTolerances().ignore_prefixes
        ),
    )
    report = diff_documents(
        _load_metrics_document(baseline),
        _load_metrics_document(candidate),
        tolerances=tolerances,
        require_comparable=not args.allow_mismatch,
    )
    print(render_diff_report(
        report, baseline_name=str(baseline), candidate_name=str(candidate)
    ))
    return 0 if report.ok else 1


def _cmd_crossover(args: argparse.Namespace) -> int:
    from repro.analysis import find_crossover

    config = ScenarioConfig.paper()
    result = find_crossover(
        config,
        lambda s: _build_allocator(args.a, s),
        lambda s: _build_allocator(args.b, s),
        seed=args.seed,
        lo_ue_count=args.lo,
        hi_ue_count=args.hi,
        tolerance=args.tolerance,
    )
    if not result.found:
        leader = args.a if result.lower_difference > 0 else args.b
        print(f"no crossover in [{args.lo}, {args.hi}]: "
              f"{leader} leads across the whole bracket")
        print(f"difference at {args.lo}: {result.lower_difference:+.1f}; "
              f"at {args.hi}: {result.upper_difference:+.1f}")
        return 0
    print(f"{args.a} vs {args.b} profit crossover at ~"
          f"{result.midpoint:.0f} UEs "
          f"(bracket [{result.lower_ue_count}, {result.upper_ue_count}], "
          f"seed {args.seed})")
    return 0


def _cmd_map(args: argparse.Namespace) -> int:
    from repro.viz import write_svg

    scenario = _scenario_from_args(args)
    assignment = run_allocation(
        scenario, _build_allocator(args.allocator, scenario)
    ).assignment
    path = write_svg(
        args.out,
        scenario.network,
        assignment,
        show_coverage=args.coverage,
        title=(
            f"{args.allocator} on {scenario.network.ue_count} UEs "
            f"(seed {scenario.seed})"
        ),
    )
    print(f"wrote {path}")
    return 0


def _cmd_summarize(args: argparse.Namespace) -> int:
    from repro.experiments import all_experiments, read_series_csv

    registry = all_experiments()
    if not args.results.is_dir():
        raise ConfigurationError(
            f"{args.results} is not a directory; run the benches first "
            f"(BENCH_SCALE=paper pytest benchmarks/ --benchmark-only)"
        )
    wanted = set(args.only) if args.only else None
    rendered = 0
    for csv_path in sorted(args.results.glob("*.csv")):
        exp_id = csv_path.stem
        if wanted is not None and exp_id not in wanted:
            continue
        experiment = registry.get(exp_id)
        x_label = experiment.x_label if experiment else "x"
        title = experiment.title if experiment else exp_id
        series = read_series_csv(csv_path, x_header=x_label)
        print(render_chart(
            series,
            title=f"{title}  [{csv_path}]",
            x_label=x_label,
            y_label=experiment.y_label if experiment else "value",
        ))
        print()
        print(render_table(series, x_header=x_label))
        print()
        rendered += 1
    if rendered == 0:
        raise ConfigurationError(
            f"no matching CSVs under {args.results}"
        )
    return 0


if __name__ == "__main__":
    sys.exit(main())
