"""Test oracle for the batched branch of
:func:`repro.experiments.sweeps.analytical_grid_sweep`.

``batched_rows_oracle`` is the row list that branch used to build point
by point: one kernel call, then ``canonical_row({**point,
"detection_probability": float(table[i, j])})`` for every grid point in
row-major order.  The sweep now reads its rows off the table in one pass
and must stay byte-identical to this list for every grid shape.
"""

from __future__ import annotations

import itertools

from repro.core.batched import detection_probability_grid
from repro.experiments.sweeps import canonical_row


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
