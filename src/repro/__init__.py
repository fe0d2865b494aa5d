"""repro — group based detection analysis for sparse sensor networks.

A full reproduction of *"Performance Analysis of Group Based Detection for
Sparse Sensor Networks"* (Zhang, Zhou, Son, Stankovic, Whitehouse —
IEEE ICDCS 2008): the M-S-approach analytical model, the S-approach
baseline, an exact reference analysis, a vectorised Monte Carlo simulator,
the online group-detection algorithm, and the deployment / geometry /
Markov-chain / multi-hop-network substrates they stand on.

Quickstart::

    from repro import MarkovSpatialAnalysis, MonteCarloSimulator, onr_scenario

    scenario = onr_scenario(num_sensors=240, speed=10.0)
    analysis = MarkovSpatialAnalysis(scenario, body_truncation=3)
    print("analysis:", analysis.detection_probability())

    sim = MonteCarloSimulator(scenario, trials=10_000, seed=7)
    print("simulation:", sim.run(workers=4).detection_probability)
"""

from repro.cache import AnalysisCache, analysis_cache, clear_analysis_cache
from repro.core import (
    BatchedMarkovSpatialAnalysis,
    DetectionLatencyAnalysis,
    ExactSpatialAnalysis,
    MarkovSpatialAnalysis,
    MultiNodeAnalysis,
    SApproach,
    Scenario,
)
from repro.deployment import SensorField, deploy_uniform
from repro.errors import (
    AnalysisError,
    DeploymentError,
    DistributionError,
    FaultError,
    GeometryError,
    ReproError,
    RoutingError,
    ScenarioError,
    SimulationError,
)
from repro import obs
from repro.experiments.presets import onr_scenario
from repro.faults import (
    FaultModel,
    degraded_detection_probability,
    degraded_scenario,
)
from repro.obs import Instrumentation, instrument
from repro.parallel import available_workers, parallel_map
from repro.simulation import (
    MonteCarloSimulator,
    RandomWalkTarget,
    SimulationResult,
    StraightLineTarget,
)

__version__ = "1.0.0"

__all__ = [
    "AnalysisCache",
    "AnalysisError",
    "BatchedMarkovSpatialAnalysis",
    "DeploymentError",
    "DetectionLatencyAnalysis",
    "DistributionError",
    "ExactSpatialAnalysis",
    "FaultError",
    "FaultModel",
    "GeometryError",
    "Instrumentation",
    "MarkovSpatialAnalysis",
    "MonteCarloSimulator",
    "MultiNodeAnalysis",
    "RandomWalkTarget",
    "ReproError",
    "RoutingError",
    "SApproach",
    "Scenario",
    "ScenarioError",
    "SensorField",
    "SimulationError",
    "SimulationResult",
    "StraightLineTarget",
    "__version__",
    "analysis_cache",
    "available_workers",
    "clear_analysis_cache",
    "degraded_detection_probability",
    "degraded_scenario",
    "deploy_uniform",
    "instrument",
    "obs",
    "onr_scenario",
    "parallel_map",
]
