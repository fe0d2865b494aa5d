"""Test oracles for the table branches of
:func:`repro.experiments.sweeps.analytical_grid_sweep` and
:func:`repro.experiments.sweeps.simulated_grid_sweep`.

Each oracle is the row list its branch used to build point by point:

* ``batched_rows_oracle``: one kernel call, then ``canonical_row({**point,
  "detection_probability": float(table[i, j])})`` for every grid point in
  row-major order;
* ``fused_rows_oracle``: one fused Monte Carlo pass, then a lookup of each
  point's ``(num_sensors, threshold)`` cell by value and
  ``canonical_row({**point, "trials": t, "detections": d,
  "detection_probability": d / t})``.

The sweeps now read their rows off the table in one pass and must stay
byte-identical to these lists for every grid shape.
"""

from __future__ import annotations

import itertools

from repro.core.batched import detection_probability_grid
from repro.experiments.sweeps import canonical_row
from repro.simulation.fused import FusedMonteCarloEngine


def batched_rows_oracle(scenario, grids, **options):
    """Rows of a ``num_sensors``/``threshold`` grid, one canonical row per
    point (first key slowest)."""
    table = detection_probability_grid(
        scenario,
        num_sensors=grids.get("num_sensors"),
        thresholds=grids.get("threshold"),
        **options,
    )
    names = list(grids)
    rows = []
    axes = [range(len(grids[name])) for name in names]
    for index in itertools.product(*axes):
        at = dict(zip(names, index))
        point = {name: grids[name][at[name]] for name in names}
        cell = table[at.get("num_sensors", 0), at.get("threshold", 0)]
        rows.append(
            canonical_row({**point, "detection_probability": float(cell)})
        )
    return rows


def fused_rows_oracle(scenario, grids, trials, seed=None, boundary="torus",
                      batch_size=512, workers=1):
    """Rows of a fused ``num_sensors``/``threshold`` grid, one canonical
    row per point (first key slowest), each point's cell found by value."""
    ns = list(grids.get("num_sensors", [scenario.num_sensors]))
    ks = list(grids.get("threshold", [scenario.threshold]))
    table = FusedMonteCarloEngine(
        scenario, num_sensors=ns, thresholds=ks, trials=trials, seed=seed,
        boundary=boundary, batch_size=batch_size,
    ).run(workers=workers).detections_grid()
    cells = {(n, k): table[i, j]
             for i, n in enumerate(ns) for j, k in enumerate(ks)}
    names = list(grids)
    rows = []
    for values in itertools.product(*(grids[name] for name in names)):
        point = dict(zip(names, values))
        detections = int(cells[(point.get("num_sensors", scenario.num_sensors),
                                point.get("threshold", scenario.threshold))])
        rows.append(canonical_row({
            **point,
            "trials": trials,
            "detections": detections,
            "detection_probability": detections / trials,
        }))
    return rows
