"""Command-line interface: ``repro <experiment> [options]``.

Regenerates any of the paper's tables/figures from the terminal::

    repro fig9a --trials 2000 --seed 7
    repro fig8
    repro runtime
    repro faults --trials 2000 --workers 4
    repro all --trials 1000 --json results/
    repro serve --port 8080 --workers 4 --replicas 2   # JSON analysis service
    repro serve --port 8080 --stream-port 9090         # + streaming ingest
    repro stream --record episode.jsonl --seed 7       # record an episode
    repro stream --replay episode.jsonl --port 9090    # publish a recording

Each experiment is an argparse subcommand; the options shared by every
experiment (``--trials``, ``--seed``, ``--workers``, ``--accuracy``,
``--json``, ``--plot``) live on one parent parser attached to both the
top-level parser and every subcommand, so they are declared once and
accepted either before or after the experiment name (``repro --trials
2000 fig9a`` and ``repro fig9a --trials 2000`` are equivalent; an option
given in both places resolves to the post-subcommand value).  Exit code
0 on success.
"""

from __future__ import annotations

import argparse
import math
import pathlib
import sys
from typing import Any, Callable, Dict, List, Optional, Tuple

from repro import obs
from repro.experiments import figures
from repro.experiments.plotting import plot_record
from repro.experiments.records import ExperimentRecord
from repro.experiments.tables import render_table

__all__ = ["main", "build_parser"]


def _run_fig8(args: argparse.Namespace) -> ExperimentRecord:
    return figures.fig8_required_truncation(target_accuracy=args.accuracy)


def _run_fig9a(args: argparse.Namespace) -> ExperimentRecord:
    return figures.fig9a_straight_line(
        trials=args.trials, seed=args.seed, workers=args.workers
    )


def _run_fig9b(args: argparse.Namespace) -> ExperimentRecord:
    return figures.fig9b_unnormalized(
        trials=args.trials, seed=args.seed, workers=args.workers
    )


def _run_fig9c(args: argparse.Namespace) -> ExperimentRecord:
    return figures.fig9c_random_walk(
        trials=args.trials, seed=args.seed, workers=args.workers
    )


def _run_runtime(args: argparse.Namespace) -> ExperimentRecord:
    return figures.runtime_comparison(target_accuracy=args.accuracy)


def _run_multinode(args: argparse.Namespace) -> ExperimentRecord:
    return figures.multinode_experiment(trials=args.trials, seed=args.seed)


def _run_false_alarms(args: argparse.Namespace) -> ExperimentRecord:
    return figures.false_alarm_table()


def _run_network(args: argparse.Namespace) -> ExperimentRecord:
    return figures.network_latency_experiment(seed=args.seed)


def _run_boundary(args: argparse.Namespace) -> ExperimentRecord:
    return figures.boundary_ablation(
        trials=args.trials, seed=args.seed, workers=args.workers
    )


def _run_truncation(args: argparse.Namespace) -> ExperimentRecord:
    return figures.truncation_ablation()


def _run_latency(args: argparse.Namespace) -> ExperimentRecord:
    return figures.detection_latency_experiment(trials=args.trials, seed=args.seed)


def _run_deployment(args: argparse.Namespace) -> ExperimentRecord:
    return figures.deployment_ablation(
        trials=args.trials, seed=args.seed, workers=args.workers
    )


def _run_speed(args: argparse.Namespace) -> ExperimentRecord:
    return figures.varying_speed_experiment(trials=args.trials, seed=args.seed)


def _run_sliding(args: argparse.Namespace) -> ExperimentRecord:
    return figures.sliding_window_experiment(trials=args.trials, seed=args.seed)


def _run_netloss(args: argparse.Namespace) -> ExperimentRecord:
    return figures.network_loss_experiment(
        trials=min(args.trials, 5_000),
        seed=args.seed,
        truncation=getattr(args, "truncation", 3),
        workers=args.workers,
    )


def _run_duty(args: argparse.Namespace) -> ExperimentRecord:
    return figures.duty_cycle_experiment(
        trials=args.trials, seed=args.seed, workers=args.workers
    )


def _run_faults(args: argparse.Namespace) -> ExperimentRecord:
    return figures.fault_injection_experiment(
        trials=min(args.trials, 5_000),
        seed=args.seed,
        workers=args.workers,
    )


def _run_tracking(args: argparse.Namespace) -> ExperimentRecord:
    return figures.tracking_experiment(
        episodes=max(50, args.trials // 30), seed=args.seed
    )


def _run_multi(args: argparse.Namespace) -> ExperimentRecord:
    return figures.multi_target_experiment(
        episodes=max(50, args.trials // 25), seed=args.seed
    )


def _run_hetero(args: argparse.Namespace) -> ExperimentRecord:
    return figures.heterogeneous_experiment(
        trials=min(args.trials, 5_000), seed=args.seed
    )


def _run_sensitivity(args: argparse.Namespace) -> ExperimentRecord:
    return figures.sensitivity_experiment()


def _run_rule(args: argparse.Namespace) -> ExperimentRecord:
    return figures.rule_design_experiment()


def _run_design(args: argparse.Namespace) -> ExperimentRecord:
    return figures.deployment_design_experiment(
        max_sensors=getattr(args, "max_sensors", 600),
        adaptive=bool(getattr(args, "adaptive", False)),
    )


def _run_m1(args: argparse.Namespace) -> ExperimentRecord:
    return figures.instantaneous_vs_group_experiment()


def _run_drift(args: argparse.Namespace) -> ExperimentRecord:
    return figures.drift_experiment(trials=args.trials, seed=args.seed)


def _run_bases(args: argparse.Namespace) -> ExperimentRecord:
    return figures.multi_base_experiment(seed=args.seed)


_EXPERIMENTS: Dict[str, Callable[[argparse.Namespace], ExperimentRecord]] = {
    "fig8": _run_fig8,
    "fig9a": _run_fig9a,
    "fig9b": _run_fig9b,
    "fig9c": _run_fig9c,
    "runtime": _run_runtime,
    "multinode": _run_multinode,
    "false-alarms": _run_false_alarms,
    "network": _run_network,
    "boundary": _run_boundary,
    "truncation": _run_truncation,
    "latency": _run_latency,
    "deployment": _run_deployment,
    "speed": _run_speed,
    "sliding": _run_sliding,
    "netloss": _run_netloss,
    "duty": _run_duty,
    "faults": _run_faults,
    "tracking": _run_tracking,
    "multi": _run_multi,
    "hetero": _run_hetero,
    "sensitivity": _run_sensitivity,
    "rule": _run_rule,
    "design": _run_design,
    "m1": _run_m1,
    "drift": _run_drift,
    "bases": _run_bases,
}

_HELP: Dict[str, str] = {
    "fig8": "required truncation values for the accuracy target (Fig. 8)",
    "fig9a": "analysis vs simulation, straight-line target (Fig. 9a)",
    "fig9b": "unnormalised analysis vs simulation (Fig. 9b)",
    "fig9c": "straight-line analysis vs random-walk target (Fig. 9c)",
    "runtime": "M-S vs S approach runtime comparison",
    "multinode": "h-of-M multi-node rule (Section 4)",
    "false-alarms": "false-alarm filtering table",
    "network": "multi-hop connectivity / delivery analysis",
    "boundary": "boundary-mode ablation (torus / clip / interior)",
    "truncation": "M-S truncation error vs the exact oracle",
    "latency": "detection latency analysis vs simulation",
    "deployment": "deployment-strategy ablation",
    "speed": "varying target speed",
    "sliding": "sliding-window parameter study",
    "netloss": "detection when disconnected sensors' reports are lost",
    "duty": "duty-cycled sensing vs folded analysis",
    "faults": "fault injection: degraded analysis vs simulation",
    "tracking": "track estimation from detection reports",
    "multi": "multiple simultaneous targets",
    "hetero": "heterogeneous sensing ranges",
    "sensitivity": "parameter sensitivity of the analysis",
    "rule": "k-of-M rule design space",
    "design": "invert the model: minimal fleets for detection + "
    "false-alarm requirements (batched kernel)",
    "m1": "instantaneous (M=1) vs group detection",
    "drift": "deployment drift over time",
    "bases": "multi-base-station placement",
    "all": "run every experiment",
    "validate": "run the reproduction acceptance checks",
    "serve": "run the JSON analysis service (see docs/service.md)",
    "stream": "simulate / record / replay / publish report streams "
    "(see docs/streaming.md)",
    "sweep": "grid sweeps over scenario fields — serial, checkpointed, "
    "or on a work-stealing worker fleet (see docs/distributed.md)",
}


def _parse_grid_axes(specs: List[str]) -> Dict[str, List[Any]]:
    """Parse repeated ``--grid FIELD=v1,v2,...`` / ``FIELD=lo:hi:step``.

    Range bounds are inclusive (``20:40:10`` is 20, 30, 40), values
    parse as int when possible, float otherwise.

    Raises:
        ValueError: on a malformed axis spec.
    """

    def number(text: str) -> Any:
        try:
            return int(text)
        except ValueError:
            return float(text)

    grids: Dict[str, List[Any]] = {}
    for spec in specs:
        name, separator, body = spec.partition("=")
        if not separator or not name or not body:
            raise ValueError(
                f"--grid expects FIELD=v1,v2,... or FIELD=lo:hi:step, "
                f"got {spec!r}"
            )
        if ":" in body:
            parts = body.split(":")
            if len(parts) != 3:
                raise ValueError(
                    f"--grid range for {name!r} must be lo:hi:step, "
                    f"got {body!r}"
                )
            low, high, step = (number(part) for part in parts)
            if step <= 0 or high < low:
                raise ValueError(
                    f"--grid range for {name!r} needs step > 0 and "
                    f"hi >= lo, got {body!r}"
                )
            if all(isinstance(part, int) for part in (low, high, step)):
                values: List[Any] = list(range(low, high + 1, step))
            else:
                # Count once, then generate low + i*step: repeated
                # accumulation drifts on long ranges and can drop or
                # add the endpoint.  The epsilon scales with the span
                # (in units of step) so large-magnitude grids keep
                # their intended last point.
                span = (high - low) / step
                count = math.floor(span + 1e-9 * max(1.0, abs(span))) + 1
                values = [
                    low if i == 0 else low + i * step for i in range(count)
                ]
        else:
            values = [number(part) for part in body.split(",") if part]
        if not values:
            raise ValueError(f"--grid axis {name!r} has no values")
        grids[name] = values
    return grids


def _parse_address(flag: str, text: str) -> Tuple[str, int]:
    """Parse ``--connect`` / ``--coordinator`` ``HOST:PORT`` values.

    An empty host means ``127.0.0.1``; the port is a decimal in
    ``0..65535``.

    Raises:
        ValueError: on a missing or malformed port.
    """
    host, separator, port = text.rpartition(":")
    if not separator or not (port.isascii() and port.isdigit()):
        raise ValueError(f"{flag} expects HOST:PORT, got {text!r}")
    if int(port) > 65535:
        raise ValueError(f"{flag} port must be in 0..65535, got {port}")
    return host or "127.0.0.1", int(port)


def _run_sweep(args: argparse.Namespace) -> int:
    """The ``repro sweep`` subcommand: serial, distributed, or worker."""
    from repro.experiments import presets
    from repro.experiments import sweeps

    try:
        if args.connect:
            host, port = _parse_address("--connect", args.connect)
        else:
            grids = _parse_grid_axes(args.grid)
            host, port = _parse_address(
                "--coordinator", args.coordinator or "127.0.0.1:0"
            )
    except ValueError as exc:
        print(f"repro sweep: {exc}", file=sys.stderr)
        return 2
    if args.connect:
        from repro.distributed import run_worker

        try:
            computed = run_worker(host, port)
        except OSError as exc:
            print(
                f"repro sweep: cannot reach coordinator {host}:{port}: {exc}",
                file=sys.stderr,
            )
            return 1
        print(f"worker finished: computed {computed} points")
        return 0
    if not grids:
        print(
            "repro sweep: at least one --grid FIELD=... axis is required",
            file=sys.stderr,
        )
        return 2
    scenario = (
        presets.small_scenario()
        if args.preset == "small"
        else presets.onr_scenario()
    )
    if args.distributed:
        rows = sweeps.distributed_grid_sweep(
            scenario,
            grids,
            kind=args.kind,
            workers=args.workers,
            checkpoint=args.checkpoint,
            host=host,
            port=port,
            trials=args.trials,
            seed=args.seed,
        )
        path = "distributed"
    elif args.kind == "analytical":
        rows = sweeps.analytical_grid_sweep(
            scenario,
            grids,
            workers=args.workers,
            checkpoint=args.checkpoint,
        )
        path = "serial"
    else:
        rows = sweeps.simulated_grid_sweep(
            scenario,
            grids,
            trials=args.trials,
            seed=args.seed,
            workers=args.workers,
            checkpoint=args.checkpoint,
            fused=False,
        )
        path = "serial"
    record = ExperimentRecord(
        experiment_id="SWEEP",
        title=f"{args.kind} grid sweep ({path}) over "
        + ", ".join(grids),
        parameters={
            "kind": args.kind,
            "preset": args.preset,
            "path": path,
            "workers": args.workers,
            "grids": {name: list(values) for name, values in grids.items()},
            **(
                {"trials": args.trials, "seed": args.seed}
                if args.kind == "simulated"
                else {}
            ),
        },
    )
    for row in rows:
        record.add_row(**row)
    _emit(record, args.json, plot=args.plot)
    return 0


def _shared_options(suppress_defaults: bool = False) -> argparse.ArgumentParser:
    """A parent parser carrying the options every subcommand accepts.

    Attached twice: to the top-level parser with real defaults, and to
    each subcommand with ``SUPPRESS`` defaults.  A subcommand parse copies
    its whole namespace over the top-level one, so the subcommand copy
    must only set attributes for options actually given after the
    subcommand name — otherwise ``repro --trials 2000 fig9a`` would have
    its 2000 silently clobbered by the subcommand's default.
    """

    def default(value: Any) -> Any:
        return argparse.SUPPRESS if suppress_defaults else value

    parent = argparse.ArgumentParser(add_help=False)
    parent.add_argument(
        "--trials",
        type=int,
        default=default(10_000),
        help="Monte Carlo trials per configuration (default: 10000, the paper's value)",
    )
    parent.add_argument(
        "--seed",
        type=int,
        default=default(20080617),
        help="simulation seed (default: 20080617)",
    )
    parent.add_argument(
        "--workers",
        type=int,
        default=default(1),
        help="worker processes for Monte Carlo experiments (default: 1, "
        "serial; >1 fans trial shards over a process pool with independent "
        "SeedSequence streams)",
    )
    parent.add_argument(
        "--accuracy",
        type=float,
        default=default(0.99),
        help="analysis accuracy target for fig8/runtime (default: 0.99)",
    )
    parent.add_argument(
        "--json",
        type=pathlib.Path,
        default=default(None),
        metavar="DIR",
        help="also write each record as JSON into this directory",
    )
    parent.add_argument(
        "--plot",
        action="store_true",
        default=default(False),
        help="render an ASCII chart after each table (where applicable)",
    )
    parent.add_argument(
        "--trace",
        type=pathlib.Path,
        default=default(None),
        metavar="FILE",
        help="stream instrumentation events (spans, counters, task "
        "lifecycle) to this JSONL file; the run manifest is appended as "
        "the final line and also written to FILE.manifest.json",
    )
    parent.add_argument(
        "--profile",
        action="store_true",
        default=default(False),
        help="print a per-stage wall/CPU profile and counter summary to "
        "stderr after the run",
    )
    return parent


def build_parser() -> argparse.ArgumentParser:
    """The CLI argument parser (exposed for tests)."""
    parser = argparse.ArgumentParser(
        prog="repro",
        description="Regenerate the tables and figures of Zhang et al., "
        "'Performance Analysis of Group Based Detection for Sparse Sensor "
        "Networks' (ICDCS 2008).",
        parents=[_shared_options()],
    )
    parent = _shared_options(suppress_defaults=True)
    subparsers = parser.add_subparsers(
        dest="experiment",
        required=True,
        metavar="experiment",
        help="which experiment to run",
    )
    for name in sorted(_EXPERIMENTS) + [
        "all",
        "validate",
        "serve",
        "stream",
        "sweep",
    ]:
        sub = subparsers.add_parser(name, parents=[parent], help=_HELP.get(name))
        if name == "sweep":
            sub.add_argument(
                "--kind",
                choices=("analytical", "simulated"),
                default="analytical",
                help="what each grid point computes (default: analytical)",
            )
            sub.add_argument(
                "--preset",
                choices=("onr", "small"),
                default="onr",
                help="template scenario the grid perturbs (default: onr)",
            )
            sub.add_argument(
                "--grid",
                action="append",
                default=[],
                metavar="FIELD=SPEC",
                help="one sweep axis: FIELD=v1,v2,... or FIELD=lo:hi:step "
                "(inclusive); repeatable, row-major order",
            )
            sub.add_argument(
                "--checkpoint",
                default=None,
                metavar="FILE",
                help="checkpoint path — completed points persist here and "
                "a rerun resumes them (all paths share the format)",
            )
            sub.add_argument(
                "--distributed",
                action="store_true",
                default=False,
                help="compute on a local work-stealing worker fleet "
                "(--workers processes) instead of in-process",
            )
            sub.add_argument(
                "--coordinator",
                default=None,
                metavar="HOST:PORT",
                help="with --distributed: coordinator bind address "
                "(default 127.0.0.1:0 — a free port; remote workers can "
                "join it with --connect)",
            )
            sub.add_argument(
                "--connect",
                default=None,
                metavar="HOST:PORT",
                help="run as a pure worker: join the coordinator at this "
                "address, compute leases until done, then exit",
            )
        if name == "stream":
            from repro.streaming.cli import add_stream_arguments

            add_stream_arguments(sub)
        if name == "design":
            sub.add_argument(
                "--max-sensors",
                type=int,
                default=600,
                dest="max_sensors",
                help="fleet-size search ceiling for the design scans "
                "(default: 600)",
            )
            sub.add_argument(
                "--adaptive",
                action="store_true",
                help="answer the fixed-rule sizing by monotone bisection "
                "through the cached evaluator seam (identical numbers, "
                "O(log) oracle points; the record carries the evaluation "
                "ledger)",
            )
        if name == "netloss":
            sub.add_argument(
                "--truncation",
                type=int,
                default=3,
                help="M-S body truncation g for the analysis column (default: 3)",
            )
        if name == "serve":
            sub.add_argument(
                "--host",
                default="127.0.0.1",
                help="bind address (default: 127.0.0.1)",
            )
            sub.add_argument(
                "--port",
                type=int,
                default=8080,
                help="bind port; 0 picks a free port and announces it "
                "(default: 8080)",
            )
            sub.add_argument(
                "--queue-limit",
                type=int,
                default=64,
                help="max compute requests in flight before 503 backpressure "
                "(default: 64)",
            )
            sub.add_argument(
                "--cache-entries",
                type=int,
                default=1024,
                help="response-cache LRU bound (default: 1024)",
            )
            sub.add_argument(
                "--cache-ttl",
                type=float,
                default=None,
                help="response time-to-live in seconds (default: never expire)",
            )
            sub.add_argument(
                "--request-timeout",
                type=float,
                default=60.0,
                help="per-request running-time bound in seconds; overdue "
                "requests get 504 and the pool is recycled (default: 60)",
            )
            sub.add_argument(
                "--replicas",
                type=int,
                default=1,
                help="supervised compute replicas, each with its own "
                "--workers-sized process pool; sick replicas are evicted "
                "and restarted with backoff (default: 1)",
            )
            sub.add_argument(
                "--attempt-timeout",
                type=float,
                default=None,
                help="per-attempt bound in seconds; a replica that eats a "
                "whole attempt is recycled and the request re-routes on "
                "its remaining budget (default: one attempt may spend "
                "the full request timeout)",
            )
            sub.add_argument(
                "--stream-port",
                type=int,
                default=None,
                dest="stream_port",
                help="also listen for framed report-stream ingest on this "
                "port (0 picks a free port and announces it); omitted = "
                "no streaming",
            )
            sub.add_argument(
                "--subscriber-queue",
                type=int,
                default=64,
                dest="subscriber_queue",
                help="per-/subscribe consumer bound on undelivered frames "
                "before the slow consumer is evicted (default: 64)",
            )
    return parser


#: Plot specs: experiment id -> (x column, y columns, group-by column).
_PLOT_SPECS = {
    "FIG8": ("num_sensors", ["g", "gh", "G"], ""),
    "FIG9A": ("num_sensors", ["analysis", "simulation"], "speed"),
    "FIG9B": ("num_sensors", ["analysis", "simulation"], "speed"),
    "FIG9C": ("num_sensors", ["analysis", "simulation"], "speed"),
    "EXT-H": ("min_nodes", ["analysis", "simulation"], ""),
    "EXT-NET": ("num_sensors", ["connected_fraction", "deliverable_fraction"], ""),
    "EXT-LAT": ("num_sensors", ["mean_latency_analysis", "mean_latency_sim"], ""),
    "EXT-EXACT": ("truncation", ["normalized_error", "unnormalized_error"], ""),
}


def _emit(
    record: ExperimentRecord,
    json_dir: Optional[pathlib.Path],
    plot: bool = False,
) -> None:
    print(f"[{record.experiment_id}] {record.title}")
    rows = [[row.get(col) for col in record.columns] for row in record.rows]
    print(render_table(record.columns, rows))
    print()
    if plot and record.experiment_id in _PLOT_SPECS:
        x_column, y_columns, group_by = _PLOT_SPECS[record.experiment_id]
        print(plot_record(record, x_column, y_columns, group_by=group_by))
        print()
    if json_dir is not None:
        json_dir.mkdir(parents=True, exist_ok=True)
        path = json_dir / f"{record.experiment_id.lower()}.json"
        path.write_text(record.to_json())
        print(f"wrote {path}")


def _dispatch(args: argparse.Namespace, instrumentation) -> int:
    """Run the selected experiment(s), one top-level span per experiment.

    The spans are the manifest's *stages*: each experiment (including
    its table rendering and JSON emission) runs inside one depth-0
    ``experiment:<name>`` span, so the per-stage wall times sum to the
    instrumented run's wall clock.
    """
    if args.experiment == "serve":
        from repro.service import ServiceConfig, run_service

        config = ServiceConfig(
            host=args.host,
            port=args.port,
            workers=args.workers,
            replicas=args.replicas,
            queue_limit=args.queue_limit,
            cache_entries=args.cache_entries,
            cache_ttl=args.cache_ttl,
            request_timeout=args.request_timeout,
            attempt_timeout=args.attempt_timeout,
            stream_port=args.stream_port,
            subscriber_queue=args.subscriber_queue,
        )
        with instrumentation.span("experiment:serve"):
            return run_service(config)
    if args.experiment == "stream":
        from repro.streaming.cli import run_stream

        with instrumentation.span("experiment:stream"):
            return run_stream(args)
    if args.experiment == "sweep":
        with instrumentation.span("experiment:sweep"):
            return _run_sweep(args)
    if args.experiment == "validate":
        from repro.experiments.validation import run_validation

        with instrumentation.span("experiment:validate"):
            summary = run_validation(trials=args.trials, seed=args.seed)
            print(summary.render())
            return 0 if summary.passed else 1
    names = sorted(_EXPERIMENTS) if args.experiment == "all" else [args.experiment]
    for name in names:
        with instrumentation.span(f"experiment:{name}"):
            record = _EXPERIMENTS[name](args)
            _emit(record, args.json, plot=args.plot)
    return 0


def main(argv: Optional[List[str]] = None) -> int:
    """CLI entry point."""
    parser = build_parser()
    args = parser.parse_args(argv)
    trace = getattr(args, "trace", None)
    profile = bool(getattr(args, "profile", False))
    if trace is None and not profile:
        return _dispatch(args, obs.NULL_INSTRUMENTATION)
    sink = obs.JsonlSink(trace) if trace is not None else None
    instrumentation = obs.Instrumentation(sink=sink)
    instrumentation.set_run_info(
        command=args.experiment,
        trials=args.trials,
        seed=args.seed,
        workers=args.workers,
    )
    try:
        with obs.activate(instrumentation):
            return _dispatch(args, instrumentation)
    finally:
        manifest = instrumentation.manifest()
        if sink is not None:
            sink.write({"type": "manifest", "manifest": manifest})
            sink.close()
            obs.write_manifest(manifest, str(trace) + ".manifest.json")
        if profile:
            print(obs.render_profile(manifest), file=sys.stderr)


if __name__ == "__main__":  # pragma: no cover - exercised via entry point
    sys.exit(main())
