"""sha256 digests of table-built sweep rows, to compare two checkouts.

Prints three digests:

* ``grids``: every batched N x k grid in e2ebench offline-sweep's job list
  for ``--seed``/``--seconds``, through ``analytical_grid_sweep``;
* ``service``: ``/sweep`` responses over a ``num_sensors`` axis and a
  ``threshold`` axis for each of those grids' geometries, through
  ``canonicalize_sweep`` and ``compute_sweep``;
* ``fused``: every fused Monte Carlo job in the same job list, through
  ``simulated_grid_sweep`` with offline-sweep's ``FUSED_AXIS``,
  ``FUSED_TRIALS`` and per-job seed, at ``workers=1`` and then at
  ``workers=2``; then the first fused job once more with a checkpoint,
  whose file bytes are hashed after its rows.

Each digest covers ``json.dumps`` of every row list or response, in job
order, so it pins key order and float text as well as values.  Run it
from the repository root against the ``repro`` package under test::

    PYTHONPATH=src python tests/batched_rows_digest.py --seed 1 --seconds 20

and again with ``PYTHONPATH`` pointing at the other checkout's ``src``;
equal digests mean byte-identical rows.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import sys
import tempfile

E2EBENCH = os.path.join(
    os.path.dirname(os.path.abspath(__file__)), "..", "e2ebench"
)


def offline_sweep_module():
    """e2ebench's ``offline_sweep`` module (read, never edited)."""
    if E2EBENCH not in sys.path:
        sys.path.insert(0, E2EBENCH)
    import offline_sweep

    return offline_sweep


def offline_jobs(kind: str, seed: int, seconds: float):
    """The ``kind`` jobs of offline-sweep's seeded job list, in order."""
    offline_sweep = offline_sweep_module()
    rounds = max(1, int(round(seconds / offline_sweep.SECONDS_PER_ROUND)))
    return [job for job in offline_sweep.make_jobs(seed, rounds)
            if job.kind == kind]


def fused_digest(seed: int, seconds: float):
    """``(job count, sha256)`` over offline-sweep's fused jobs."""
    from repro.experiments.sweeps import simulated_grid_sweep

    offline_sweep = offline_sweep_module()
    jobs = offline_jobs("fused", seed, seconds)
    digest = hashlib.sha256()

    def rows(job, **kwargs):
        return simulated_grid_sweep(
            job.scenario, {"num_sensors": offline_sweep.FUSED_AXIS},
            trials=offline_sweep.FUSED_TRIALS, seed=job.args["seed"],
            **kwargs,
        )

    for workers in (1, 2):
        for job in jobs:
            digest.update(json.dumps(rows(job, workers=workers)).encode("utf-8"))
    with tempfile.TemporaryDirectory() as directory:
        path = os.path.join(directory, "checkpoint.json")
        digest.update(json.dumps(rows(jobs[0], checkpoint=path)).encode("utf-8"))
        with open(path, "rb") as handle:
            digest.update(handle.read())
    return len(jobs), digest.hexdigest()


def digests(seed: int, seconds: float):
    from repro.experiments.sweeps import analytical_grid_sweep
    from repro.service.handlers import canonicalize_sweep, compute_sweep

    grids, service = hashlib.sha256(), hashlib.sha256()
    jobs = offline_jobs("batched", seed, seconds)
    for job in jobs:
        rows = analytical_grid_sweep(job.scenario, job.args["grids"])
        grids.update(json.dumps(rows).encode("utf-8"))
        for parameter, values in (("num_sensors", list(range(60, 241, 20))),
                                  ("threshold", list(range(1, 21)))):
            request = canonicalize_sweep({"scenario": job.scenario.to_dict(),
                                          "parameter": parameter,
                                          "values": values})
            service.update(json.dumps(compute_sweep(request)).encode("utf-8"))
    return len(jobs), grids.hexdigest(), service.hexdigest()


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=20.0)
    args = parser.parse_args()
    count, grids, service = digests(args.seed, args.seconds)
    fused_count, fused = fused_digest(args.seed, args.seconds)
    print(f"batched jobs: {count}")
    print(f"fused jobs: {fused_count}")
    print(f"grids:   {grids}")
    print(f"service: {service}")
    print(f"fused:   {fused}")


if __name__ == "__main__":
    main()
