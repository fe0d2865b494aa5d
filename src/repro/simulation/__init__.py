"""Monte Carlo simulation substrate (the paper's Matlab simulator, Section 4)."""

from repro.simulation.fused import FusedMonteCarloEngine, FusedSweepResult
from repro.simulation.runner import (
    MonteCarloSimulator,
    SimulationResult,
)
from repro.simulation.sensing import sample_detections, segment_coverage
from repro.simulation.stats import standard_error, wilson_interval
from repro.simulation.streams import ReportStreamEpisode, simulate_report_stream
from repro.simulation.targets import (
    RandomWalkTarget,
    StraightLineTarget,
    VaryingSpeedTarget,
)

__all__ = [
    "FusedMonteCarloEngine",
    "FusedSweepResult",
    "MonteCarloSimulator",
    "RandomWalkTarget",
    "ReportStreamEpisode",
    "SimulationResult",
    "StraightLineTarget",
    "VaryingSpeedTarget",
    "sample_detections",
    "segment_coverage",
    "simulate_report_stream",
    "standard_error",
    "wilson_interval",
]
