"""Request validation, canonicalisation, and the picklable compute kernels.

Each compute endpoint is an :class:`Endpoint` pairing two functions:

* ``canonicalize(payload) -> dict`` runs **in the event loop**: it
  validates the raw JSON body and returns the canonical request — every
  default filled in, every value coerced through
  :class:`~repro.core.scenario.Scenario` — raising :class:`RequestError`
  (HTTP 400) on anything invalid.  Canonicalisation is what makes
  coalescing and caching effective: two payloads that differ only in key
  order, numeric spelling (``240`` vs ``240.0`` for a float field), or
  omitted defaults collapse onto one fingerprint;
* ``compute(canonical) -> dict`` is a **module-level, picklable**
  function executed in a worker process (the event loop never blocks on
  model math).  It must be a pure function of the canonical request so
  retries after a pool crash are deterministic — the same property
  :mod:`repro.parallel` relies on for crash recovery.

Request sizes are bounded here (``MAX_TRIALS``, ``MAX_SWEEP_POINTS``) so
one request cannot monopolise a worker for unbounded time; the service's
per-request timeout is the backstop, not the first line of defence.

Endpoints may also carry an ``approximate`` kernel — a *cheap* analytical
stand-in (truncation-1, no substeps; Monte Carlo replaced by its
analytical prediction) the service runs on the event-loop side when no
healthy replica can take the request.  Degraded responses are flagged
``"degraded": true`` and carry an ``"approximation"`` note, so a client
can always tell a fallback from the real thing.

No endpoint builds an analytical engine for a sweep itself: ``/sweep``
is :func:`~repro.experiments.sweeps.analytical_grid_sweep` over the
request's one axis (rows byte-identical to the library's), and a
degraded ``/simulate`` sweep returns the degraded ``/sweep`` rows.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Any, Callable, Dict, List, Optional

from repro.core.markov_spatial import MarkovSpatialAnalysis
from repro.core.scenario import Scenario
from repro.errors import AnalysisError, ScenarioError, SimulationError
from repro.experiments.sweeps import BATCHED_FIELDS, analytical_grid_sweep

__all__ = [
    "ENDPOINTS",
    "Endpoint",
    "MAX_SWEEP_POINTS",
    "MAX_TRIALS",
    "RequestError",
    "approximate_analyze",
    "approximate_simulate",
    "approximate_sweep",
    "canonicalize_analyze",
    "canonicalize_simulate",
    "canonicalize_sweep",
    "compute_analyze",
    "compute_simulate",
    "compute_sweep",
]

#: Upper bound on Monte Carlo trials per ``/simulate`` request (the
#: paper's standard run is 10,000).
MAX_TRIALS = 200_000

#: Upper bound on values per ``/sweep`` request.
MAX_SWEEP_POINTS = 256

#: Scenario fields a sweep may vary (numeric knobs of the model).
SWEEPABLE_FIELDS = (
    "num_sensors",
    "sensing_range",
    "target_speed",
    "sensing_period",
    "detect_prob",
    "window",
    "threshold",
)

_BOUNDARY_MODES = ("torus", "clip", "interior")


class RequestError(ValueError):
    """Invalid request payload — maps to HTTP 400."""


def _require_dict(payload: Any, what: str) -> Dict[str, Any]:
    if not isinstance(payload, dict):
        raise RequestError(f"{what} must be a JSON object, got {type(payload).__name__}")
    return payload


def _scenario_from(payload: Dict[str, Any]) -> Scenario:
    scenario_dict = _require_dict(payload.get("scenario"), "'scenario'")
    try:
        return Scenario.from_dict(scenario_dict)
    except (ScenarioError, TypeError, ValueError) as exc:
        raise RequestError(f"invalid scenario: {exc}") from exc


def _int_field(
    payload: Dict[str, Any],
    name: str,
    default: Optional[int],
    minimum: int,
    maximum: Optional[int] = None,
) -> Optional[int]:
    value = payload.get(name, default)
    if value is None:
        return None
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise RequestError(f"'{name}' must be an integer, got {value!r}")
    if float(value) != int(value):
        raise RequestError(f"'{name}' must be an integer, got {value!r}")
    value = int(value)
    if value < minimum:
        raise RequestError(f"'{name}' must be >= {minimum}, got {value}")
    if maximum is not None and value > maximum:
        raise RequestError(
            f"'{name}' must be <= {maximum}, got {value} "
            "(bound requests so one query cannot monopolise a worker)"
        )
    return value


def _unknown_keys(payload: Dict[str, Any], allowed: tuple) -> None:
    unknown = sorted(set(payload) - set(allowed))
    if unknown:
        raise RequestError(
            f"unknown field(s) {unknown}; allowed: {sorted(allowed)}"
        )


# ----------------------------------------------------------------------
# /analyze — analytical detection probability (M-S-approach, Eq. 13)
# ----------------------------------------------------------------------


def canonicalize_analyze(payload: Any) -> Dict[str, Any]:
    """Validate an ``/analyze`` body; fill defaults; return canonical form."""
    payload = _require_dict(payload, "request body")
    _unknown_keys(
        payload,
        ("scenario", "body_truncation", "head_truncation", "substeps", "normalize"),
    )
    scenario = _scenario_from(payload)
    body_truncation = _int_field(payload, "body_truncation", 3, 1, 64)
    head_truncation = _int_field(payload, "head_truncation", None, 1, 64)
    substeps = _int_field(payload, "substeps", 1, 1, 16)
    normalize = payload.get("normalize", True)
    if not isinstance(normalize, bool):
        raise RequestError(f"'normalize' must be a boolean, got {normalize!r}")
    if not scenario.has_body_stage:
        raise RequestError(
            "the M-S-approach requires window > ms "
            f"(window={scenario.window}, ms={scenario.ms})"
        )
    return {
        "scenario": scenario.to_dict(),
        "body_truncation": body_truncation,
        "head_truncation": (
            body_truncation if head_truncation is None else head_truncation
        ),
        "substeps": substeps,
        "normalize": normalize,
    }


def compute_analyze(request: Dict[str, Any]) -> Dict[str, Any]:
    """Worker-side kernel for ``/analyze`` (pure, picklable)."""
    scenario = Scenario.from_dict(request["scenario"])
    analysis = MarkovSpatialAnalysis(
        scenario,
        body_truncation=request["body_truncation"],
        head_truncation=request["head_truncation"],
        substeps=request["substeps"],
    )
    probability = analysis.detection_probability(normalize=request["normalize"])
    return {
        "detection_probability": probability,
        "scenario": request["scenario"],
        "body_truncation": request["body_truncation"],
        "head_truncation": request["head_truncation"],
        "substeps": request["substeps"],
        "normalize": request["normalize"],
        "ms": scenario.ms,
        "p_indi": scenario.p_indi,
    }


# ----------------------------------------------------------------------
# /simulate — Monte Carlo validation run (Section 4 procedure)
# ----------------------------------------------------------------------


def _canonical_simulate_sweep(payload: Dict[str, Any], base: Scenario):
    """Validate the optional ``/simulate`` ``"sweep"`` sub-object."""
    spec = payload.get("sweep")
    if spec is None:
        return None
    spec = _require_dict(spec, "'sweep'")
    _unknown_keys(spec, ("parameter", "values"))
    parameter = spec.get("parameter")
    if parameter not in BATCHED_FIELDS:
        raise RequestError(
            f"'sweep.parameter' must be one of {sorted(BATCHED_FIELDS)} "
            f"(axes one fused Monte Carlo pass can answer), got {parameter!r}"
        )
    values = spec.get("values")
    if not isinstance(values, (list, tuple)) or not values:
        raise RequestError("'sweep.values' must be a non-empty list")
    if len(values) > MAX_SWEEP_POINTS:
        raise RequestError(
            f"'sweep.values' must have <= {MAX_SWEEP_POINTS} points, "
            f"got {len(values)}"
        )
    base_dict = base.to_dict()
    canonical_values: List[int] = []
    for value in values:
        if isinstance(value, bool) or not isinstance(value, (int, float)):
            raise RequestError(
                f"sweep values must be numbers, got {value!r}"
            )
        if isinstance(value, float) and not math.isfinite(value):
            raise RequestError(
                f"'{parameter}' sweep values must be finite, got {value!r}"
            )
        if isinstance(value, float) and not value.is_integer():
            raise RequestError(
                f"'{parameter}' sweep values must be integers, got {value!r}"
            )
        point = dict(base_dict)
        point[parameter] = int(value)
        try:
            point_scenario = Scenario.from_dict(point)
        except ScenarioError as exc:
            raise RequestError(
                f"sweep value {value!r} for {parameter!r} is invalid: {exc}"
            ) from exc
        canonical_values.append(point_scenario.to_dict()[parameter])
    return {"parameter": parameter, "values": canonical_values}


def canonicalize_simulate(payload: Any) -> Dict[str, Any]:
    """Validate a ``/simulate`` body; fill defaults; return canonical form.

    The optional ``"sweep": {"parameter": ..., "values": [...]}`` object
    asks for a whole ``num_sensors`` or ``threshold`` axis from **one**
    fused Monte Carlo pass (:mod:`repro.simulation.fused`): all points
    share the request's ``trials`` under common random numbers.
    """
    payload = _require_dict(payload, "request body")
    _unknown_keys(payload, ("scenario", "trials", "seed", "boundary", "sweep"))
    scenario = _scenario_from(payload)
    trials = _int_field(payload, "trials", 2_000, 1, MAX_TRIALS)
    seed = _int_field(payload, "seed", 20080617, 0)
    boundary = payload.get("boundary", "torus")
    if boundary not in _BOUNDARY_MODES:
        raise RequestError(
            f"'boundary' must be one of {_BOUNDARY_MODES}, got {boundary!r}"
        )
    return {
        "scenario": scenario.to_dict(),
        "trials": trials,
        "seed": seed,
        "boundary": boundary,
        "sweep": _canonical_simulate_sweep(payload, scenario),
    }


def compute_simulate(request: Dict[str, Any]) -> Dict[str, Any]:
    """Worker-side kernel for ``/simulate`` (deterministic in the seed).

    With a ``sweep`` the whole axis is answered by one
    :class:`~repro.simulation.fused.FusedMonteCarloEngine` pass; the
    response gains a ``"rows"`` list (one Wilson-intervalled estimate per
    value) and its top-level estimate is the base scenario's own point.
    """
    from repro.simulation.runner import MonteCarloSimulator

    scenario = Scenario.from_dict(request["scenario"])
    sweep = request.get("sweep")
    if sweep is not None:
        from repro.simulation.fused import FusedMonteCarloEngine

        parameter = sweep["parameter"]
        values = list(sweep["values"])
        axes = {
            "num_sensors": [scenario.num_sensors],
            "thresholds": [scenario.threshold],
        }
        axes["num_sensors" if parameter == "num_sensors" else "thresholds"] = (
            values
        )
        result = FusedMonteCarloEngine(
            scenario,
            trials=request["trials"],
            seed=request["seed"],
            boundary=request["boundary"],
            **axes,
        ).run()
        detections = result.detections_grid()
        intervals = result.confidence_interval_grid()
        rows = []
        for index, value in enumerate(values):
            i, j = (index, 0) if parameter == "num_sensors" else (0, index)
            rows.append(
                {
                    parameter: value,
                    "detections": int(detections[i, j]),
                    "detection_probability": float(
                        detections[i, j] / result.trials
                    ),
                    "confidence_interval": [
                        float(intervals[i, j, 0]),
                        float(intervals[i, j, 1]),
                    ],
                }
            )
        return {
            "parameter": parameter,
            "rows": rows,
            "trials": request["trials"],
            "seed": request["seed"],
            "boundary": request["boundary"],
            "scenario": request["scenario"],
        }
    result = MonteCarloSimulator(
        scenario,
        trials=request["trials"],
        seed=request["seed"],
        boundary=request["boundary"],
    ).run()
    low, high = result.confidence_interval()
    return {
        "detection_probability": result.detection_probability,
        "standard_error": result.standard_error(),
        "confidence_interval": [low, high],
        "trials": request["trials"],
        "seed": request["seed"],
        "boundary": request["boundary"],
        "scenario": request["scenario"],
    }


# ----------------------------------------------------------------------
# /sweep — analytical detection probability over one parameter axis
# ----------------------------------------------------------------------


def canonicalize_sweep(payload: Any) -> Dict[str, Any]:
    """Validate a ``/sweep`` body; fill defaults; return canonical form."""
    payload = _require_dict(payload, "request body")
    _unknown_keys(
        payload,
        ("scenario", "parameter", "values", "body_truncation", "substeps"),
    )
    base = _scenario_from(payload)
    parameter = payload.get("parameter")
    if parameter not in SWEEPABLE_FIELDS:
        raise RequestError(
            f"'parameter' must be one of {sorted(SWEEPABLE_FIELDS)}, "
            f"got {parameter!r}"
        )
    values = payload.get("values")
    if not isinstance(values, (list, tuple)) or not values:
        raise RequestError("'values' must be a non-empty list")
    if len(values) > MAX_SWEEP_POINTS:
        raise RequestError(
            f"'values' must have <= {MAX_SWEEP_POINTS} points, got {len(values)}"
        )
    body_truncation = _int_field(payload, "body_truncation", 3, 1, 64)
    substeps = _int_field(payload, "substeps", 1, 1, 16)
    base_dict = base.to_dict()
    canonical_values: List[Any] = []
    for value in values:
        if isinstance(value, bool) or not isinstance(value, (int, float)):
            raise RequestError(f"sweep values must be numbers, got {value!r}")
        point = dict(base_dict)
        point[parameter] = value
        try:
            point_scenario = Scenario.from_dict(point)
        except ScenarioError as exc:
            raise RequestError(
                f"sweep value {value!r} for {parameter!r} is invalid: {exc}"
            ) from exc
        if not point_scenario.has_body_stage:
            raise RequestError(
                f"sweep value {value!r} for {parameter!r} leaves window <= ms"
            )
        canonical_values.append(point_scenario.to_dict()[parameter])
    return {
        "scenario": base_dict,
        "parameter": parameter,
        "values": canonical_values,
        "body_truncation": body_truncation,
        "substeps": substeps,
    }


def compute_sweep(request: Dict[str, Any]) -> Dict[str, Any]:
    """Worker-side kernel for ``/sweep``: the request's one axis through
    :func:`~repro.experiments.sweeps.analytical_grid_sweep`.

    A ``num_sensors`` or ``threshold`` axis is one batched kernel call;
    any other axis runs per point in the worker's process-wide analysis
    cache.  Rows are the sweep's canonical rows, so they equal the
    library's byte for byte.
    """
    return {
        "parameter": request["parameter"],
        "rows": analytical_grid_sweep(
            Scenario.from_dict(request["scenario"]),
            {request["parameter"]: request["values"]},
            body_truncation=request["body_truncation"],
            substeps=request["substeps"],
        ),
        "body_truncation": request["body_truncation"],
        "substeps": request["substeps"],
        "scenario": request["scenario"],
    }


# ----------------------------------------------------------------------
# Degraded-mode approximations (cheap, loop-side, clearly labelled)
# ----------------------------------------------------------------------

_APPROXIMATION_NOTE = (
    "truncation-1 analytical estimate computed in degraded mode; "
    "re-issue the request for the full answer"
)


def approximate_analyze(request: Dict[str, Any]) -> Dict[str, Any]:
    """Cheapest honest ``/analyze`` answer: truncation-1, no substeps."""
    result = compute_analyze(
        {**request, "body_truncation": 1, "head_truncation": 1, "substeps": 1}
    )
    result["approximation"] = _APPROXIMATION_NOTE
    return result


def approximate_simulate(request: Dict[str, Any]) -> Dict[str, Any]:
    """Degraded ``/simulate``: the analytical prediction stands in.

    No Monte Carlo runs in degraded mode — the truncation-1 analytical
    estimate of the same scenario is returned instead, without
    ``detections``/``confidence_interval`` fields a real run would
    carry (fabricating error bars for numbers that were never sampled
    would be worse than omitting them).
    """
    sweep = request.get("sweep")
    if sweep is not None:
        return {
            "parameter": sweep["parameter"],
            "rows": approximate_sweep(
                {"scenario": request["scenario"], **sweep}
            )["rows"],
            "scenario": request["scenario"],
            "approximation": _APPROXIMATION_NOTE,
        }
    analysis = MarkovSpatialAnalysis(
        Scenario.from_dict(request["scenario"]),
        body_truncation=1,
        head_truncation=1,
        substeps=1,
    )
    return {
        "detection_probability": analysis.detection_probability(),
        "scenario": request["scenario"],
        "approximation": _APPROXIMATION_NOTE,
    }


def approximate_sweep(request: Dict[str, Any]) -> Dict[str, Any]:
    """Degraded ``/sweep``: the same axis at truncation-1."""
    result = compute_sweep(
        {**request, "body_truncation": 1, "substeps": 1}
    )
    result["approximation"] = _APPROXIMATION_NOTE
    return result


@dataclass(frozen=True)
class Endpoint:
    """One compute endpoint: path, loop-side validator, worker-side kernel.

    ``approximate``, when present, is the degraded-mode stand-in the
    service may run loop-side when the replica fleet cannot take the
    request; it must be cheap and clearly label its output.
    """

    path: str
    name: str
    canonicalize: Callable[[Any], Dict[str, Any]]
    compute: Callable[[Dict[str, Any]], Dict[str, Any]]
    approximate: Optional[Callable[[Dict[str, Any]], Dict[str, Any]]] = None


#: The service's compute endpoints, keyed by path.
ENDPOINTS: Dict[str, Endpoint] = {
    endpoint.path: endpoint
    for endpoint in (
        Endpoint(
            "/analyze",
            "analyze",
            canonicalize_analyze,
            compute_analyze,
            approximate_analyze,
        ),
        Endpoint(
            "/simulate",
            "simulate",
            canonicalize_simulate,
            compute_simulate,
            approximate_simulate,
        ),
        Endpoint(
            "/sweep",
            "sweep",
            canonicalize_sweep,
            compute_sweep,
            approximate_sweep,
        ),
    )
}

#: Exceptions from the model layers that indicate a bad request rather
#: than a server fault (raised by kernels on semantically-invalid
#: parameter combinations canonicalisation cannot fully pre-check).
MODEL_ERRORS = (AnalysisError, ScenarioError, SimulationError)
