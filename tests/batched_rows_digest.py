"""sha256 digests of batched analytical sweep rows, to compare two checkouts.

Prints two digests:

* ``grids``: every batched N x k grid in e2ebench offline-sweep's job list
  for ``--seed``/``--seconds``, through ``analytical_grid_sweep``;
* ``service``: ``/sweep`` responses over a ``num_sensors`` axis and a
  ``threshold`` axis for each of those grids' geometries, through
  ``canonicalize_sweep`` and ``compute_sweep``.

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

E2EBENCH = os.path.join(
    os.path.dirname(os.path.abspath(__file__)), "..", "e2ebench"
)


def batched_jobs(seed: int, seconds: float):
    """The batched jobs of offline-sweep's seeded job list, in order."""
    sys.path.insert(0, E2EBENCH)
    import offline_sweep

    rounds = max(1, int(round(seconds / offline_sweep.SECONDS_PER_ROUND)))
    return [job for job in offline_sweep.make_jobs(seed, rounds)
            if job.kind == "batched"]


def digests(seed: int, seconds: float):
    from repro.experiments.sweeps import analytical_grid_sweep
    from repro.service.handlers import canonicalize_sweep, compute_sweep

    grids, service = hashlib.sha256(), hashlib.sha256()
    jobs = batched_jobs(seed, seconds)
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
    print(f"batched jobs: {count}")
    print(f"grids:   {grids}")
    print(f"service: {service}")


if __name__ == "__main__":
    main()
