"""Generic parameter sweep helpers, optionally fanned over processes.

Both helpers accept ``workers=N``: grid points are evaluated by
:func:`repro.parallel.parallel_map` on a process pool, so parallel and
serial sweeps return identical row lists whenever ``compute`` is
deterministic.  ``compute`` must then be picklable (a module-level
function or :func:`functools.partial`) — lambdas and closures only work at
``workers=1``.  That pool is the one local multi-worker executor.
:func:`distributed_grid_sweep` runs the same grids on a
:mod:`repro.distributed` work-stealing fleet instead — the path for
workers on other hosts (``repro sweep --distributed`` / ``--connect``) —
and writes byte-identical rows and checkpoint files.

Shard dispatch: at ``workers > 1`` the points still to compute are cut
into at most ``4 * workers`` contiguous row-major shards, and each shard
is one pool task that computes its rows in order.  A sweep point often
costs less than a pool round trip, so one task per point would make a
pooled sweep slower than a serial one.  Each finished shard is expanded
back into per-row results (one ``sweep.point_complete`` event per
point), and a crashed shard is retried whole.  ``workers=1`` runs
inline, row by row.

Checkpoint/resume
-----------------

Long sweeps can pass ``checkpoint="path.json"``: completed rows are
written (atomically — temp file plus :func:`os.replace`) as they finish,
keyed by their index in the sweep order — after every row at
``workers=1``, after every shard on the pool, and once for a batched
analytical grid, whose rows all come from one kernel call.  Re-running
the same sweep with the same checkpoint path skips the already-completed
points and computes only the missing ones, so a killed sweep resumes
where it stopped and still returns the exact row list the uninterrupted
run would have produced.  The file carries a fingerprint of the sweep's
points; a checkpoint from a *different* sweep raises
:class:`~repro.errors.SimulationError` instead of silently mixing rows.
Checkpoint rows round-trip through JSON, so ``compute`` must return
JSON-serialisable rows (plain dicts of numbers/strings — which all the
experiment computes do) for resume to be lossless.  Every row is passed
through :func:`canonical_row` on the write path — numpy scalars and
arrays become plain Python numbers/lists and keys come back sorted — so
a fresh row, a checkpoint-resumed row, and a row that crossed the
distributed wire are **byte-identical**, not merely equal in value.
Floats survive canonicalisation exactly (JSON round-trips them through
``repr``).

Batched analytical sweeps
-------------------------

:func:`analytical_grid_sweep` evaluates the M-S-approach over a grid of
scenario fields.  When every swept axis is in :data:`BATCHED_FIELDS`
(``num_sensors`` and ``threshold`` — the axes the Eq. 12 chain can
broadcast over), the whole grid is answered by one
:func:`repro.core.batched.detection_probability_grid` call, and its rows
are read off the returned table in one pass: each axis value is
canonicalised once, the cells are walked in grid order, and each row is
built with sorted keys, so no point dict, per-row JSON round trip or
executor call is made.  Such a grid counts ``sweep.points`` and
``sweep.points_completed`` but emits no per-row ``sweep.point`` span or
``sweep.point_complete`` event: no point is evaluated on its own.  Any
other axis (or ``batch=False``) runs per point (counted in the
``batch.fallbacks`` obs counter).  Every per-point row — serial, pooled
or distributed — comes from
:func:`repro.core.batched.point_detection_probability`, which evaluates
the *same* batched kernel on singleton axes; the kernel is
batch-invariant, so both paths produce **byte-identical** row and
checkpoint JSON.  The service's ``/sweep`` endpoint is this function
over one axis.

Fused simulated sweeps
----------------------

:func:`simulated_grid_sweep` is the Monte Carlo mirror: when every swept
axis is in :data:`BATCHED_FIELDS`, the whole grid is answered by one
:class:`repro.simulation.fused.FusedMonteCarloEngine` pass — one
deployment at ``max(num_sensors)`` per trial, every smaller ``N`` read
off the prefix under common random numbers, every ``k`` off the same
per-trial totals.  Any other axis (or a scenario feature the fused
engine does not model) falls back to one
:class:`~repro.simulation.runner.MonteCarloSimulator` per point (counted
in ``mc.fallbacks``; ``fused=False`` forces it).  Unlike the analytical
sweep, the two dispatch paths are *not* byte-identical to each other —
they consume randomness differently — except at ``N = max(num_sensors)``, where the fused
column is bitwise equal to the per-point run with the same seed.  Each
path is individually deterministic for a given seed, which is what the
checkpoint contract needs.
"""

from __future__ import annotations

import functools
import hashlib
import itertools
import json
import math
import os
import tempfile
from typing import (
    Any, Callable, Dict, Iterable, List, Optional, Sequence, Tuple,
)

import numpy as np

from repro import obs
from repro.errors import AnalysisError, SimulationError
from repro.parallel import _validate_workers, parallel_map

__all__ = [
    "BATCHED_FIELDS",
    "analytical_grid_sweep",
    "canonical_row",
    "distributed_grid_sweep",
    "simulated_grid_sweep",
    "sweep",
    "grid_sweep",
]

#: Scenario fields the batched kernel can broadcast over: the occupancy
#: binomial's ``N`` and the detection rule's ``k``.  Any other swept field
#: changes the region geometry or detection physics and forces the
#: per-point path.
BATCHED_FIELDS = ("num_sensors", "threshold")

_CHECKPOINT_VERSION = 1


def _json_default(value: Any) -> Any:
    """Coerce numpy scalars/arrays so simulator-derived rows serialise."""
    if isinstance(value, np.generic):
        return value.item()
    if isinstance(value, np.ndarray):
        return value.tolist()
    raise TypeError(
        "checkpoint rows must be JSON-serialisable (plain dicts of "
        f"numbers/strings), got {type(value).__name__}: {value!r}"
    )


def canonical_row(row: Dict[str, Any]) -> Dict[str, Any]:
    """The canonical form of a sweep row: what a checkpoint holds.

    One JSON round-trip with sorted keys — numpy scalars and arrays
    collapse to plain Python numbers/lists, key order becomes sorted.
    Applying it on the write path (rather than only on resume) is what
    makes fresh, resumed, and wire-transported rows byte-identical:
    every execution path converges on this one representation.  Floats
    are exact across the round-trip (JSON serialises via ``repr``).

    Raises:
        TypeError: for a row JSON cannot represent.
    """
    return _canonical_value(row)


def _canonical_value(value: Any) -> Any:
    """``value`` after the JSON round trip that :func:`canonical_row`
    applies to a whole row."""
    return json.loads(json.dumps(value, sort_keys=True, default=_json_default))


def _points_fingerprint(points: Sequence[Any]) -> str:
    """Stable digest of the sweep's point list (order-sensitive)."""
    payload = json.dumps(points, sort_keys=True, default=repr)
    return hashlib.sha256(payload.encode("utf-8")).hexdigest()


def _load_checkpoint(path: str, fingerprint: str) -> Dict[int, Any]:
    """Read completed rows from ``path``; empty dict when absent."""
    if not os.path.exists(path):
        return {}
    try:
        with open(path, "r", encoding="utf-8") as handle:
            state = json.load(handle)
    except (OSError, json.JSONDecodeError) as exc:
        raise SimulationError(
            f"checkpoint file {path!r} is unreadable or corrupt: {exc}"
        ) from exc
    if state.get("version") != _CHECKPOINT_VERSION:
        raise SimulationError(
            f"checkpoint file {path!r} has unsupported version "
            f"{state.get('version')!r}"
        )
    if state.get("fingerprint") != fingerprint:
        raise SimulationError(
            f"checkpoint file {path!r} was written by a different sweep "
            "(point list mismatch); delete it or use a fresh path"
        )
    completed = state.get("completed", {})
    return {int(index): row for index, row in completed.items()}


def _resume(
    points: Sequence[Any], checkpoint: str, ob: Any
) -> Tuple[str, Dict[int, Any]]:
    """The sweep's fingerprint and the canonical rows ``checkpoint``
    already holds, counted as ``sweep.points_from_checkpoint``."""
    fingerprint = _points_fingerprint(points)
    completed = {
        index: canonical_row(row)
        for index, row in _load_checkpoint(checkpoint, fingerprint).items()
    }
    if ob.enabled and completed:
        ob.incr("sweep.points_from_checkpoint", len(completed))
        ob.event(
            "sweep.resume",
            checkpoint=checkpoint,
            from_checkpoint=sorted(completed),
        )
    return fingerprint, completed


def _write_checkpoint(
    path: str, fingerprint: str, completed: Dict[int, Any]
) -> None:
    """Atomically persist the completed-row map.

    Indexes are written in sorted order so the file's bytes depend only
    on *which* points completed, not on the order they completed in —
    a distributed sweep finishing points out of order and the serial
    path produce identical checkpoint files.
    """
    state = {
        "version": _CHECKPOINT_VERSION,
        "fingerprint": fingerprint,
        "completed": {str(index): completed[index] for index in sorted(completed)},
    }
    directory = os.path.dirname(os.path.abspath(path))
    fd, tmp_path = tempfile.mkstemp(
        prefix=os.path.basename(path) + ".", suffix=".tmp", dir=directory
    )
    try:
        with os.fdopen(fd, "w", encoding="utf-8") as handle:
            # One json.dumps string: json.dump's chunked encoder is a
            # self-referencing closure, a reference cycle per write.
            handle.write(json.dumps(state, default=_json_default))
        os.replace(tmp_path, path)
    except BaseException:
        try:
            os.unlink(tmp_path)
        except OSError:
            pass
        raise


#: Pool tasks per worker (see "Shard dispatch" above).  More than one
#: shard per worker keeps a grid whose slow points bunch together
#: balanced across the pool.
_SHARDS_PER_WORKER = 4


def _compute_shard(
    compute: Callable[..., Dict[str, Any]],
    kwargs_items: bool,
    points: List[Any],
) -> List[Dict[str, Any]]:
    """Pool trampoline: one shard's rows, in point order."""
    if kwargs_items:
        return [compute(**point) for point in points]
    return [compute(point) for point in points]


def _call_with_kwargs(
    compute: Callable[..., Dict[str, Any]], point: Dict[str, Any]
) -> Dict[str, Any]:
    """``compute(**point)``: one grid point's row."""
    return compute(**point)


def _shards(indexes: List[int], count: int) -> List[List[int]]:
    """``indexes`` cut into ``count`` contiguous runs whose lengths differ
    by at most one."""
    bounds = [len(indexes) * shard // count for shard in range(count + 1)]
    return [indexes[start:stop] for start, stop in zip(bounds, bounds[1:])]


def _run_points(
    points: List[Any],
    compute: Callable[..., Dict[str, Any]],
    workers: int,
    kwargs_items: bool,
    checkpoint: Optional[str],
    canonical: bool = False,
) -> List[Dict[str, Any]]:
    """Shared sweep engine: resume from checkpoint, compute the rest.

    ``canonical=True`` (or any checkpointed run) passes every row
    through :func:`canonical_row` so all execution paths — fresh,
    resumed, pooled, distributed — return byte-identical row lists.

    At ``workers > 1`` the missing points go to the pool as shards (see
    "Shard dispatch" in the module docstring), with one checkpoint write
    per shard; at ``workers=1`` they run inline, one write per row.
    (Batched analytical grids do not come here: see
    :func:`_batched_rows`.)

    Observability: with instrumentation active the engine counts every
    point (``sweep.points``), marks the ones served from a checkpoint
    (``sweep.points_from_checkpoint`` plus a ``sweep.resume`` event
    listing their indexes), emits a ``sweep.point_complete`` event per
    computed point and a ``sweep.checkpoint_write`` count per persisted
    write, and — at ``workers=1``, where ``compute`` runs in the parent —
    wraps each evaluation in a ``sweep.point`` span.
    """
    ob = obs.current()
    if ob.enabled:
        ob.incr("sweep.points", len(points))
    canonicalise = canonical or checkpoint is not None
    if checkpoint is None:
        fingerprint = None
        completed: Dict[int, Any] = {}
    else:
        fingerprint, completed = _resume(points, checkpoint, ob)
    missing = [index for index in range(len(points)) if index not in completed]
    if not missing:
        return [completed[index] for index in range(len(points))]
    workers = _validate_workers(workers)

    def finish(indexes: List[int], rows: List[Any]) -> None:
        for index, row in zip(indexes, rows):
            completed[index] = canonical_row(row) if canonicalise else row
            if ob.enabled:
                ob.incr("sweep.points_completed")
                ob.event("sweep.point_complete", index=index)
        if checkpoint is not None:
            _write_checkpoint(checkpoint, fingerprint, completed)
            if ob.enabled:
                ob.incr("sweep.checkpoint_writes")

    if workers > 1:
        shards = _shards(
            missing, min(len(missing), _SHARDS_PER_WORKER * workers)
        )
        parallel_map(
            functools.partial(_compute_shard, compute, kwargs_items),
            [[points[index] for index in shard] for shard in shards],
            workers=workers,
            on_result=lambda position, rows: finish(shards[position], rows),
        )
    else:
        compute_fn = compute
        if ob.enabled:
            # Inline execution never pickles, so a closure wrapper is
            # safe; pool workers reset to null instrumentation instead
            # (the parent-side task events cover them).
            def compute_fn(*args: Any, **kwargs: Any) -> Any:
                with ob.span("sweep.point"):
                    return compute(*args, **kwargs)

        # Only a checkpoint or instrumentation needs each row as it
        # finishes; otherwise rows are canonicalised after the map.
        eager = checkpoint is not None or ob.enabled
        rows = parallel_map(
            (
                functools.partial(_call_with_kwargs, compute_fn)
                if kwargs_items
                else compute_fn
            ),
            [points[index] for index in missing],
            on_result=(
                (lambda position, row: finish([missing[position]], [row]))
                if eager
                else None
            ),
        )
        if not eager:
            finish(missing, rows)
    return [completed[index] for index in range(len(points))]


def sweep(
    values: Iterable[Any],
    compute: Callable[[Any], Dict[str, Any]],
    workers: int = 1,
    checkpoint: Optional[str] = None,
) -> List[Dict[str, Any]]:
    """Apply ``compute`` to each value, returning one row dict per value.

    Args:
        values: the sweep axis.
        compute: maps one value to a row dict.
        workers: process count; ``1`` (default) runs inline.
        checkpoint: optional JSON path; completed rows persist there and a
            rerun resumes from them (see the module docstring).
    """
    return _run_points(
        list(values),
        compute,
        workers=workers,
        kwargs_items=False,
        checkpoint=checkpoint,
    )


def grid_sweep(
    grids: Dict[str, Sequence[Any]],
    compute: Callable[..., Dict[str, Any]],
    workers: int = 1,
    checkpoint: Optional[str] = None,
) -> List[Dict[str, Any]]:
    """Cartesian-product sweep.

    Args:
        grids: mapping from keyword-argument name to the values it takes.
        compute: called once per grid point with those keyword arguments;
            returns a row dict.
        workers: process count; ``1`` (default) runs inline.
        checkpoint: optional JSON path; completed rows persist there and a
            rerun resumes from them (see the module docstring).

    Returns:
        Rows in row-major (first key slowest) order.
    """
    return _run_points(
        _grid_points(grids),
        compute,
        workers=workers,
        kwargs_items=True,
        checkpoint=checkpoint,
    )


def _grid_points(grids: Dict[str, Sequence[Any]]) -> List[Dict[str, Any]]:
    """Row-major cartesian points (first key slowest)."""
    names = list(grids)
    return [
        dict(zip(names, values))
        for values in itertools.product(*(grids[name] for name in names))
    ]


def _check_grid_sweep(
    scenario: Any, grids: Dict[str, Any], workers: Any
) -> None:
    """Reject an empty grid, a field the scenario does not have, or a
    ``workers`` that is not an integer >= 1 (before any path runs)."""
    if not grids:
        raise AnalysisError("grids must name at least one scenario field")
    unknown = [name for name in grids if not hasattr(scenario, name)]
    if unknown:
        raise AnalysisError(
            f"unknown scenario field(s) {unknown}; sweepable fields are "
            "the Scenario dataclass fields"
        )
    _validate_workers(workers)


def _require_flag(name: str, value: Any, error: type) -> None:
    if not isinstance(value, bool):
        raise error(f"{name} must be True or False, got {value!r}")


def _cell_lookup(
    scenario: Any, grids: Dict[str, Sequence[Any]], table: np.ndarray
) -> Callable[[Dict[str, Any]], Any]:
    """``point -> table[i, j]`` for a grid over :data:`BATCHED_FIELDS`,
    where ``table`` is indexed ``(num_sensors, threshold)``."""
    cells = {
        (n, k): table[i, j]
        for i, n in enumerate(grids.get("num_sensors", [scenario.num_sensors]))
        for j, k in enumerate(grids.get("threshold", [scenario.threshold]))
    }
    return lambda point: cells[
        (
            point.get("num_sensors", scenario.num_sensors),
            point.get("threshold", scenario.threshold),
        )
    ]


def _batched_rows(
    grids: Dict[str, Sequence[Any]],
    table: np.ndarray,
    checkpoint: Optional[str],
) -> List[Dict[str, Any]]:
    """The rows of a grid over :data:`BATCHED_FIELDS`, read off ``table``
    (indexed ``(num_sensors, threshold)``) in one pass.

    Row ``r`` is byte-identical to ``canonical_row({**point,
    "detection_probability": float(table[i, j])})`` for the ``r``-th
    :func:`_grid_points` point: each axis value is canonicalised once,
    the axis indexes are walked in grid order (so duplicate values keep
    their own cells), and keys are sorted.  With a checkpoint, rows it
    already holds are kept, and the file is written once if any were
    missing.
    """
    ob = obs.current()
    names = list(grids)
    axes = [
        [_canonical_value(value) for value in grids[name]] for name in names
    ]
    size = math.prod(len(axis) for axis in axes)
    if ob.enabled:
        ob.incr("sweep.points", size)
    fingerprint = None
    completed: Dict[int, Any] = {}
    if checkpoint is not None:
        fingerprint, completed = _resume(_grid_points(grids), checkpoint, ob)
    if len(completed) == size:
        return [completed[index] for index in range(size)]
    cells = table.tolist()
    # Where each table coordinate sits in an index tuple: an axis the grid
    # does not sweep is the table's only row or column, read through the
    # trailing 0.
    n_at, k_at = (
        names.index(name) if name in grids else len(names)
        for name in ("num_sensors", "threshold")
    )
    labels = [*names, "detection_probability"]
    order = sorted(range(len(labels)), key=labels.__getitem__)
    keys = [labels[slot] for slot in order]
    rows = []
    for flat, index in enumerate(
        itertools.product(*(range(len(axis)) for axis in axes))
    ):
        row = completed.get(flat)
        if row is None:
            at = (*index, 0)
            values = [axis[i] for axis, i in zip(axes, index)]
            values.append(cells[at[n_at]][at[k_at]])
            row = dict(zip(keys, [values[slot] for slot in order]))
        rows.append(row)
    if ob.enabled:
        ob.incr("sweep.points_completed", size - len(completed))
    if checkpoint is not None:
        _write_checkpoint(checkpoint, fingerprint, dict(enumerate(rows)))
        if ob.enabled:
            ob.incr("sweep.checkpoint_writes")
    return rows


def _analytical_point(
    scenario: Any,
    body_truncation: int,
    head_truncation: Optional[int],
    substeps: int,
    normalize: bool,
    **point: Any,
) -> Dict[str, Any]:
    """One analytical sweep row, ``{**point, "detection_probability": p}``.

    Module-level (hence picklable for ``workers > 1``).  The value is
    :func:`repro.core.batched.point_detection_probability`, so per-point
    rows are **bitwise** equal to the batched-grid rows.
    """
    from repro.core.batched import point_detection_probability

    probability = point_detection_probability(
        scenario,
        point,
        body_truncation=body_truncation,
        head_truncation=head_truncation,
        substeps=substeps,
        normalize=normalize,
    )
    return {**point, "detection_probability": probability}


def analytical_grid_sweep(
    scenario: Any,
    grids: Dict[str, Sequence[Any]],
    body_truncation: int = 3,
    head_truncation: Optional[int] = None,
    substeps: int = 1,
    normalize: bool = True,
    workers: int = 1,
    checkpoint: Optional[str] = None,
    batch: bool = True,
) -> List[Dict[str, Any]]:
    """Sweep the M-S-approach ``P_M[X >= k]`` over a grid of scenario fields.

    Args:
        scenario: the template :class:`~repro.core.scenario.Scenario`;
            fields not swept keep its values.
        grids: mapping from scenario field name to the values it takes;
            rows come back in row-major (first key slowest) order, one
            per point, as ``{**point, "detection_probability": p}``.
        body_truncation / head_truncation / substeps: analysis parameters,
            as on :class:`~repro.core.markov_spatial.MarkovSpatialAnalysis`.
        normalize: Eq. 13 normalisation (as on ``detection_probability``).
        workers: process count for the *per-point* path; the batched path
            is a single vectorised evaluation and ignores it (it is
            still validated).
        checkpoint: optional JSON path, same format and resume semantics
            as :func:`grid_sweep` — and byte-identical between the two
            dispatch paths.
        batch: ``True`` (default) answers the grid with one batched
            kernel call when every swept field is in
            :data:`BATCHED_FIELDS`, and per point otherwise; ``False``
            always evaluates per point.

    Raises:
        AnalysisError: for a field the scenario does not have, or a
            non-bool ``batch``.
        SimulationError: for ``workers`` that is not an integer >= 1.
    """
    _check_grid_sweep(scenario, grids, workers)
    _require_flag("batch", batch, AnalysisError)
    if batch and all(name in BATCHED_FIELDS for name in grids):
        from repro.core.batched import detection_probability_grid

        table = detection_probability_grid(
            scenario,
            num_sensors=grids.get("num_sensors"),
            thresholds=grids.get("threshold"),
            body_truncation=body_truncation,
            head_truncation=head_truncation,
            substeps=substeps,
            normalize=normalize,
        )
        return _batched_rows(grids, table, checkpoint)
    points = _grid_points(grids)
    ob = obs.current()
    if ob.enabled:
        ob.incr("batch.fallbacks", len(points))
    compute = functools.partial(
        _analytical_point,
        scenario,
        body_truncation,
        head_truncation,
        substeps,
        normalize,
    )
    return _run_points(
        points,
        compute,
        workers=workers,
        kwargs_items=True,
        checkpoint=checkpoint,
        canonical=True,
    )


def _simulated_row(
    point: Dict[str, Any], trials: int, detections: int
) -> Dict[str, Any]:
    return {
        **point,
        "trials": trials,
        "detections": detections,
        "detection_probability": detections / trials,
    }


def _simulated_point(
    scenario: Any,
    trials: int,
    seed: Optional[int],
    boundary: str,
    batch_size: int,
    **point: Any,
) -> Dict[str, Any]:
    """One simulated sweep row (module-level, hence picklable).

    Every point runs with the *same* root seed — a crude
    common-random-numbers scheme that keeps rows deterministic without
    threading per-point seed material through the checkpoint format.
    ``threshold`` never reaches the simulator (report counts do not
    depend on it); it is applied to the finished trial counts.
    """
    from repro.core.batched import resolve_point
    from repro.simulation.runner import MonteCarloSimulator

    target, threshold = resolve_point(scenario, point)
    result = MonteCarloSimulator(
        target,
        trials=trials,
        seed=seed,
        boundary=boundary,
        batch_size=batch_size,
    ).run()
    if threshold is None:
        threshold = target.threshold
    detections = int(np.count_nonzero(result.report_counts >= threshold))
    return _simulated_row(point, trials, detections)


def simulated_grid_sweep(
    scenario: Any,
    grids: Dict[str, Sequence[Any]],
    trials: int = 10_000,
    seed: Optional[int] = None,
    boundary: str = "torus",
    batch_size: int = 512,
    workers: int = 1,
    checkpoint: Optional[str] = None,
    fused: bool = True,
) -> List[Dict[str, Any]]:
    """Monte Carlo detection probability over a grid of scenario fields.

    Args:
        scenario: the template :class:`~repro.core.scenario.Scenario`.
        grids: mapping from scenario field name to the values it takes;
            rows come back in row-major order as ``{**point, "trials":
            t, "detections": d, "detection_probability": d / t}``.
        trials: trials per grid point (shared by *all* points on the
            fused path — that is the common-random-numbers design).
        seed: root seed; each dispatch path is deterministic for a given
            seed, and the two paths agree bitwise at
            ``N = max(num_sensors)``.
        boundary / batch_size: as on :class:`MonteCarloSimulator`.
        workers: on the fused path, trial shards
            (:func:`repro.parallel.run_fused_parallel`); on the
            per-point path, pool processes per point.
        checkpoint: optional JSON path, same resume semantics as
            :func:`grid_sweep`.  A checkpoint written by one dispatch
            path must not resume the other (the fingerprint only covers
            the point list), so resume with the same ``fused`` value.
        fused: ``True`` (default) answers the grid with one fused pass
            when every swept field is in :data:`BATCHED_FIELDS`, and
            with one simulator per point otherwise; ``False`` always
            runs per point.

    Raises:
        AnalysisError: for a field the scenario does not have.
        SimulationError: a non-bool ``fused``, ``workers`` that is not
            an integer >= 1, or invalid simulation parameters.
    """
    _check_grid_sweep(scenario, grids, workers)
    _require_flag("fused", fused, SimulationError)
    points = _grid_points(grids)
    if fused and all(name in BATCHED_FIELDS for name in grids):
        from repro.simulation.fused import FusedMonteCarloEngine

        result = FusedMonteCarloEngine(
            scenario,
            num_sensors=list(grids.get("num_sensors", [scenario.num_sensors])),
            thresholds=list(grids.get("threshold", [scenario.threshold])),
            trials=trials,
            seed=seed,
            boundary=boundary,
            batch_size=batch_size,
        ).run(workers=workers)
        cell = _cell_lookup(scenario, grids, result.detections_grid())

        def compute(**point: Any) -> Dict[str, Any]:
            return _simulated_row(point, trials, int(cell(point)))

        # The pass already ran (its trials possibly sharded over
        # `workers`); the closure is a table lookup.
        workers = 1
    else:
        ob = obs.current()
        if ob.enabled:
            ob.incr("mc.fallbacks", len(points))
        compute = functools.partial(
            _simulated_point,
            scenario,
            trials,
            seed,
            boundary,
            batch_size,
        )
    return _run_points(
        points,
        compute,
        workers=workers,
        kwargs_items=True,
        checkpoint=checkpoint,
        canonical=True,
    )


def distributed_grid_sweep(
    scenario: Any,
    grids: Dict[str, Sequence[Any]],
    kind: str = "analytical",
    workers: int = 2,
    checkpoint: Optional[str] = None,
    timeout: Optional[float] = None,
    host: str = "127.0.0.1",
    port: int = 0,
    body_truncation: int = 3,
    head_truncation: Optional[int] = None,
    substeps: int = 1,
    normalize: bool = True,
    trials: int = 10_000,
    seed: Optional[int] = None,
    boundary: str = "torus",
    batch_size: int = 512,
) -> List[Dict[str, Any]]:
    """Run a grid sweep on a local work-stealing worker fleet.

    The same grid, scenario semantics, and checkpoint format as
    :func:`analytical_grid_sweep` / :func:`simulated_grid_sweep`, but
    the points are computed by ``workers`` separate worker *processes*
    coordinated over a socket (see :mod:`repro.distributed`).  The
    returned rows — and any checkpoint file written — are
    **byte-identical** to the serial per-point path: analytical rows
    match every serial dispatch mode; simulated rows match the
    per-point (``fused=False``) path, whose common-random-numbers
    design reuses the same root ``seed`` at every point.

    A checkpoint written by a serial sweep resumes a distributed one
    and vice versa (same fingerprint, same file format), so long as the
    grid values are plain JSON types — the point list crosses the wire
    as JSON, and non-JSON grid values (numpy scalars) would change the
    fingerprint en route.

    Args:
        scenario: the template :class:`~repro.core.scenario.Scenario`.
        grids: mapping from scenario field name to the values it takes;
            rows come back in row-major order.
        kind: ``"analytical"`` (M-S-approach per point) or
            ``"simulated"`` (one Monte Carlo simulator per point).
        workers: worker processes to spawn.
        checkpoint: optional JSON path with the usual resume semantics;
            also what lets a killed worker's shard be recomputed by any
            surviving worker without repeating finished points.
        timeout: overall wall-clock bound for the sweep.
        host / port: coordinator bind address (``port=0`` picks a free
            port; remote workers can join with ``repro sweep --connect``).
        body_truncation / head_truncation / substeps / normalize:
            analytical parameters (``kind="analytical"``).
        trials / seed / boundary / batch_size: Monte Carlo parameters
            (``kind="simulated"``).

    Raises:
        AnalysisError: unknown grid fields or an unknown ``kind``.
        SimulationError: ``workers`` that is not an integer >= 1, or the
            fleet failed to complete the sweep.
    """
    _check_grid_sweep(scenario, grids, workers)
    if kind == "analytical":
        spec: Dict[str, Any] = {
            "kind": "analytical",
            "scenario": scenario.to_dict(),
            "body_truncation": body_truncation,
            "head_truncation": head_truncation,
            "substeps": substeps,
            "normalize": normalize,
        }
    elif kind == "simulated":
        spec = {
            "kind": "simulated",
            "scenario": scenario.to_dict(),
            "trials": trials,
            "seed": seed,
            "boundary": boundary,
            "batch_size": batch_size,
        }
    else:
        raise AnalysisError(
            f"kind must be 'analytical' or 'simulated', got {kind!r}"
        )
    # Imported lazily: repro.distributed imports this module's checkpoint
    # helpers, so a top-level import would be circular.
    from repro.distributed import distributed_sweep

    return distributed_sweep(
        _grid_points(grids),
        spec,
        workers=workers,
        checkpoint=checkpoint,
        timeout=timeout,
        host=host,
        port=port,
    )
