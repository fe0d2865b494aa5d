"""sha256 digests of sweep rows and responses, to compare two checkouts.

Prints five digests:

* ``grids``: every batched N x k grid in e2ebench offline-sweep's job list
  for ``--seed``/``--seconds``, through ``analytical_grid_sweep``;
* ``service``: ``/sweep`` responses over a ``num_sensors`` axis and a
  ``threshold`` axis for each of those grids' geometries, through
  ``canonicalize_sweep`` and ``compute_sweep``;
* ``fused``: every fused Monte Carlo job in the same job list, through
  ``simulated_grid_sweep`` with offline-sweep's ``FUSED_AXIS``,
  ``FUSED_TRIALS`` and per-job seed, at ``workers=1`` and then at
  ``workers=2``; then the first fused job once more with a checkpoint,
  whose file bytes are hashed after its rows;
* ``per-point``: every per-point geometry grid in the same job list,
  through ``analytical_grid_sweep(batch=False)`` at ``workers=1`` and
  then at ``workers=2``; then the first per-point job once more with a
  checkpoint, whose file bytes are hashed after its rows;
* ``simulate``: ``/simulate`` responses over a ``num_sensors`` axis and a
  ``threshold`` axis for each fused job's geometry and seed, through
  ``canonicalize_simulate`` and ``compute_simulate``, hashed as the
  ``json_body`` bytes the service sends.

The other digests cover ``json.dumps`` of every row list or response, in
job order, so they pin key order and float text as well as values.  Run it
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


def pooled_and_checkpointed_digest(jobs, rows):
    """sha256 over ``rows(job, workers=w)`` for every job at ``w`` = 1
    then 2, then the first job's checkpointed rows and file bytes."""
    digest = hashlib.sha256()
    for workers in (1, 2):
        for job in jobs:
            digest.update(json.dumps(rows(job, workers=workers)).encode("utf-8"))
    with tempfile.TemporaryDirectory() as directory:
        path = os.path.join(directory, "checkpoint.json")
        digest.update(json.dumps(rows(jobs[0], checkpoint=path)).encode("utf-8"))
        with open(path, "rb") as handle:
            digest.update(handle.read())
    return digest.hexdigest()


def fused_digest(seed: int, seconds: float):
    """``(job count, sha256)`` over offline-sweep's fused jobs."""
    from repro.experiments.sweeps import simulated_grid_sweep

    offline_sweep = offline_sweep_module()
    jobs = offline_jobs("fused", seed, seconds)

    def rows(job, **kwargs):
        return simulated_grid_sweep(
            job.scenario, {"num_sensors": offline_sweep.FUSED_AXIS},
            trials=offline_sweep.FUSED_TRIALS, seed=job.args["seed"],
            **kwargs,
        )

    return len(jobs), pooled_and_checkpointed_digest(jobs, rows)


def per_point_digest(seed: int, seconds: float):
    """``(job count, sha256)`` over offline-sweep's per-point grids."""
    from repro.experiments.sweeps import analytical_grid_sweep

    jobs = offline_jobs("per-point", seed, seconds)

    def rows(job, **kwargs):
        return analytical_grid_sweep(
            job.scenario, job.args["grids"], batch=False, **kwargs
        )

    return len(jobs), pooled_and_checkpointed_digest(jobs, rows)


def simulate_digest(seed: int, seconds: float):
    """sha256 over ``/simulate`` sweep responses at the fused jobs'
    geometries and seeds."""
    from repro.service.handlers import canonicalize_simulate, compute_simulate
    from repro.service.transport import json_body

    offline_sweep = offline_sweep_module()
    digest = hashlib.sha256()
    for job in offline_jobs("fused", seed, seconds):
        for parameter, values in (("num_sensors", offline_sweep.FUSED_AXIS),
                                  ("threshold", list(range(1, 11)))):
            request = canonicalize_simulate({
                "scenario": job.scenario.to_dict(),
                "trials": offline_sweep.FUSED_TRIALS,
                "seed": job.args["seed"],
                "sweep": {"parameter": parameter, "values": values},
            })
            digest.update(json_body(compute_simulate(request)))
    return digest.hexdigest()


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
    per_point_count, per_point = per_point_digest(args.seed, args.seconds)
    simulate = simulate_digest(args.seed, args.seconds)
    print(f"batched jobs: {count}")
    print(f"fused jobs: {fused_count}")
    print(f"per-point jobs: {per_point_count}")
    print(f"grids:   {grids}")
    print(f"service: {service}")
    print(f"fused:   {fused}")
    print(f"per-point: {per_point}")
    print(f"simulate:  {simulate}")


if __name__ == "__main__":
    main()
