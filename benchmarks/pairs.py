"""Alternated parent/change pairs of the end-to-end benchmark.

Usage (stdlib only)::

    python3 benchmarks/pairs.py --parent DIR --change DIR --pairs N \\
        [--workload W ...] [--seconds S] [--seed K]

Each pair runs the benchmark command that ``BENCHMARK.json`` names
(``python3 e2ebench/run.py``) once from the root of each checkout, with
the same ``--workload``, ``--seed`` and ``--seconds``.  Pairs alternate
which side goes first, so a drifting host charges both sides alike.
Every run is printed, then, per workload and end-to-end metric:

* q1/median/q3 of the parent's and the change's runs;
* the change's win count over the pairs (``better`` from
  ``BENCHMARK.json``);
* the A/A floor, the parent's interquartile range as a share of its
  median: a difference smaller than this is noise on this host;
* the change of the medians and a verdict: ``WORSE`` or ``BETTER``
  beyond the metric's bound, ``within bound``, or ``unresolved`` when
  there is one pair only or either side's spread is wider than the
  bound (more pairs, or a quieter host, are needed before the metric
  says anything).  With at least 3 pairs, a clean separation (every
  change run on the same side of every parent run, and medians further
  apart than the bound) gives ``WORSE`` or ``BETTER`` whatever the
  spread.

``--parent`` and ``--change`` may name the same checkout: that A/A run
measures the floor alone.  Exits 1 when a run fails, prints no result,
reports incorrect outputs or failed operations; otherwise exits 2 when
any metric reads ``WORSE``, and 0.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
from pathlib import Path

SIDES = ("parent", "change")

#: The verdict that fails the command (exit 2).
WORSE = "WORSE beyond bound"

#: Fewest pairs whose clean separation outweighs a wide spread.
MIN_SEPARATED_PAIRS = 3


def parse_args(argv=None) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--parent", type=Path, required=True)
    parser.add_argument("--change", type=Path, required=True)
    parser.add_argument("--pairs", type=int, required=True)
    parser.add_argument("--workload", action="append", default=None)
    parser.add_argument("--seconds", type=float, default=None)
    parser.add_argument("--seed", type=int, default=1)
    args = parser.parse_args(argv)
    if args.pairs < 1:
        parser.error("--pairs must be >= 1")
    return args


def run_once(spec: dict, root: Path, workload: str, seed: int,
             seconds: float):
    """One benchmark run from ``root``: ``(result dict or None, error)``."""
    command = list(spec["command"]) + [
        "--workload", workload, "--seed", str(seed),
        "--seconds", str(seconds), "--trace", "0",
    ]
    proc = subprocess.run(command, cwd=root, capture_output=True, text=True)
    lines = proc.stdout.strip().splitlines()
    try:
        result = json.loads(lines[-1])
    except (IndexError, ValueError):
        result = None
    if proc.returncode != 0 or not isinstance(result, dict):
        tail = (proc.stderr.strip().splitlines() or ["no output"])[-1]
        return None, f"exit {proc.returncode}: {tail}"
    if not result.get("correct"):
        return result, "incorrect outputs"
    if result.get("failed"):
        return result, f"{result['failed']} failed operation(s)"
    return result, None


def quartiles(values):
    if len(values) == 1:
        return values[0], values[0], values[0]
    q1, median, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return q1, median, q3


def share(part: float, whole: float) -> float:
    return part / whole if whole else 0.0


def summarise(metric: dict, pairs: list) -> str:
    """One metric's line over the complete ``(parent, change)`` pairs."""
    name, better, bound = metric["name"], metric["better"], metric["bound"]
    values = {
        side: [pair[index][name] for pair in pairs]
        for index, side in enumerate(SIDES)
    }
    (p1, pm, p3), (c1, cm, c3) = (quartiles(values[s]) for s in SIDES)
    sign = 1 if better == "higher" else -1
    wins = sum(
        1 for p, c in zip(values["parent"], values["change"])
        if sign * (c - p) > 0
    )
    floor = share(p3 - p1, pm)
    spread = max(floor, share(c3 - c1, cm))
    delta = share(cm - pm, pm)
    separated = (
        len(pairs) >= MIN_SEPARATED_PAIRS
        and abs(delta) > bound
        and (max(values["change"]) < min(values["parent"])
             or min(values["change"]) > max(values["parent"]))
    )
    if len(pairs) < 2:
        verdict = "unresolved (one pair has no spread)"
    elif spread > bound and not separated:
        verdict = f"unresolved (spread {spread:.1%} > bound {bound:.0%})"
    elif sign * delta < -bound:
        verdict = f"{WORSE} {bound:.0%}"
    elif sign * delta > bound:
        verdict = f"BETTER beyond bound {bound:.0%}"
    else:
        verdict = f"within bound {bound:.0%}"
    return (
        f"  {name:<17} parent {p1:.4g}/{pm:.4g}/{p3:.4g}  "
        f"change {c1:.4g}/{cm:.4g}/{c3:.4g}  "
        f"median {delta:+.1%}  wins {wins}/{len(values['change'])} "
        f"({better})  A/A floor {floor:.1%}  {verdict}"
    )


def main(argv=None) -> int:
    args = parse_args(argv)
    roots = {"parent": args.parent.resolve(), "change": args.change.resolve()}
    spec = json.loads((roots["change"] / "BENCHMARK.json").read_text())
    workloads = args.workload or [w["name"] for w in spec["workloads"]]
    seconds = spec["run_seconds"] if args.seconds is None else args.seconds
    ok, worse = True, False
    for workload in workloads:
        pairs = []
        for index in range(args.pairs):
            order = SIDES if index % 2 == 0 else SIDES[::-1]
            pair = {}
            for side in order:
                result, error = run_once(
                    spec, roots[side], workload, args.seed, seconds
                )
                if error is not None:
                    ok = False
                    print(f"run {workload} pair {index + 1} {side}: {error}")
                if result is None:
                    continue
                pair[side] = {
                    name: entry["value"]
                    for name, entry in result["metrics"].items()
                }
                print(f"run {workload} pair {index + 1} {side}: " + " ".join(
                    f"{k}={v:.6g}" for k, v in pair[side].items()
                ), flush=True)
            if len(pair) == 2:
                pairs.append((pair["parent"], pair["change"]))
        if not pairs:
            print(f"{workload}: no complete pair")
            continue
        print(f"{workload} ({len(pairs)} complete pairs, q1/median/q3, "
              f"--seconds {seconds:g}, --seed {args.seed}):")
        for metric in spec["end_to_end"]:
            line = summarise(metric, pairs)
            worse = worse or WORSE in line
            print(line)
    if not ok:
        return 1
    return 2 if worse else 0


if __name__ == "__main__":
    raise SystemExit(main())
