"""Sensor deployment substrate: fields, placement strategies, drift."""

from repro.deployment.drift import apply_drift, drift_deployment_strategy
from repro.deployment.field import SensorField
from repro.deployment.strategies import (
    deploy_grid,
    deploy_grid_batched,
    deploy_uniform,
)

__all__ = [
    "SensorField",
    "apply_drift",
    "deploy_grid",
    "deploy_grid_batched",
    "deploy_uniform",
    "drift_deployment_strategy",
]
