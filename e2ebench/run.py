"""End-to-end benchmark of the repro analysis stack.

Usage (from the root of a checkout)::

    python3 e2ebench/run.py --workload serve-mix --seed 1 --seconds 10 --trace 0

Workloads: ``serve-mix``, ``stream-ingest``, ``offline-sweep`` (see
``e2ebench/README.md``).  Inputs are generated from ``--seed``; the
amount of work is a fixed count sized from ``--seconds``, so two commits
given the same arguments do identical work.  Every run checks the
program's outputs and counts each mismatch as a failed operation.

With ``--trace 0`` the last line of standard output is a JSON object
holding every end-to-end metric named in ``BENCHMARK.json``; with
``--trace 1`` it holds every per-layer metric instead, measured by a
separate traced pass and in-process replays of the same inputs.  Layers
a workload does not exercise report 0.  Earlier lines carry the
per-layer table, the host-drift calibration and human-readable notes.

Exits non-zero without a result when the checkout has no source tree.
"""

from __future__ import annotations

import argparse
import importlib
import json
import os
import sys

import harness

WORKLOADS = {
    "serve-mix": "serve_mix",
    "stream-ingest": "stream_ingest",
    "offline-sweep": "offline_sweep",
}


def parse_args(argv=None) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not 0 < args.seconds < float("inf"):
        parser.error("--seconds must be a positive number")
    return args


def load_spec() -> dict:
    with open(harness.ROOT / "BENCHMARK.json", encoding="utf-8") as handle:
        return json.load(handle)


def collect(spec: dict, outcome: harness.Outcome, trace: bool) -> dict:
    """The named metrics, each with the unit ``BENCHMARK.json`` declares."""
    metrics = {}
    for entry in spec["per_layer" if trace else "end_to_end"]:
        name, unit = entry["name"], entry["unit"]
        if name in outcome.metrics:
            value, emitted_unit = outcome.metrics[name]
            if emitted_unit != unit:
                raise RuntimeError(
                    f"metric {name} emitted in {emitted_unit}, declared {unit}"
                )
        elif trace:
            value = 0.0  # a layer this workload's path does not touch
        else:
            raise RuntimeError(f"end-to-end metric {name} was not measured")
        metrics[name] = {"value": value, "unit": unit}
    return metrics


def main(argv=None) -> int:
    args = parse_args(argv)
    if not harness.source_tree_present():
        print(f"error: no source tree at {harness.SRC}; run from the root of "
              "a repro checkout", file=sys.stderr)
        return 2
    sys.path.insert(0, str(harness.SRC))
    spec = load_spec()
    workload = importlib.import_module(WORKLOADS[args.workload])

    calib_start = harness.calibration_ms()
    outcome = workload.run(args.seed, args.seconds, bool(args.trace))
    calib_end = harness.calibration_ms()

    host = {
        "cpu_count": os.cpu_count(),
        "calib_start_ms": round(calib_start, 3),
        "calib_end_ms": round(calib_end, 3),
        "processes": outcome.processes,
        "threads": outcome.threads,
    }
    if args.trace:
        outcome.metric("host.calib_ms", calib_start, "ms")
        outcome.metric("host.calib_end_ms", calib_end, "ms")
        outcome.metric("host.cpu_count", os.cpu_count() or 0, "count")
        outcome.metric("host.processes", outcome.processes, "count")
        outcome.metric("host.threads", outcome.threads, "count")
    metrics = collect(spec, outcome, bool(args.trace))

    for note in outcome.notes:
        print(note)
    print("host " + json.dumps(host, sort_keys=True))
    print(json.dumps({
        "correct": outcome.failed == 0,
        "attempted": outcome.attempted,
        "failed": outcome.failed,
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
