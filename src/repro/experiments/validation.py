"""One-command acceptance test: does this install reproduce the paper?

``repro validate`` runs a reduced version of the paper's headline
validation (Fig. 9a agreement, Fig. 8 shape, the runtime contrast, and
the internal oracle chain) and prints a PASS/FAIL summary — the smoke
test a new user or CI job runs before trusting anything else.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from typing import List, Optional

from repro.core.accuracy import (
    required_body_truncation,
    required_head_truncation,
    required_s_approach_truncation,
)
from repro.core.exact_spatial import ExactSpatialAnalysis
from repro.core.markov_spatial import MarkovSpatialAnalysis
from repro.experiments.presets import onr_scenario
from repro.markov.oracle import distribution_gap
from repro.simulation.runner import MonteCarloSimulator

__all__ = ["ValidationCheck", "ValidationSummary", "run_validation"]


@dataclass(frozen=True)
class ValidationCheck:
    """One pass/fail check with its evidence."""

    name: str
    passed: bool
    detail: str


@dataclass
class ValidationSummary:
    """All checks from one validation run."""

    checks: List[ValidationCheck] = field(default_factory=list)
    elapsed_seconds: float = 0.0

    @property
    def passed(self) -> bool:
        """Whether every check passed."""
        return all(check.passed for check in self.checks)

    def render(self) -> str:
        """Human-readable summary."""
        lines = []
        for check in self.checks:
            status = "PASS" if check.passed else "FAIL"
            lines.append(f"[{status}] {check.name}: {check.detail}")
        verdict = "REPRODUCTION OK" if self.passed else "REPRODUCTION BROKEN"
        lines.append(
            f"-> {verdict} "
            f"({sum(c.passed for c in self.checks)}/{len(self.checks)} checks, "
            f"{self.elapsed_seconds:.1f}s)"
        )
        return "\n".join(lines)


def run_validation(
    trials: int = 2_000, seed: Optional[int] = 20080617
) -> ValidationSummary:
    """Run the acceptance checks.

    Args:
        trials: Monte Carlo trials per simulated point (the tolerance
            scales accordingly).
        seed: simulation seed.

    Returns:
        A :class:`ValidationSummary`; inspect ``.passed`` or ``render()``.
    """
    start = time.perf_counter()
    summary = ValidationSummary()
    noise = 4.0 / trials**0.5

    # 1. The engine agrees with the literal Eq. 12 matrix product.
    scenario = onr_scenario(num_sensors=240, speed=10.0)
    analysis = MarkovSpatialAnalysis(scenario, 3)
    engine_gap = distribution_gap(
        analysis.report_count_distribution(), scenario, 3
    )
    summary.checks.append(
        ValidationCheck(
            "M-S engines identical",
            engine_gap < 1e-10,
            f"max |matrix - convolution| = {engine_gap:.2e}",
        )
    )

    # 2. M-S matches the exact oracle after normalisation.
    exact = ExactSpatialAnalysis(scenario).detection_probability()
    ms_value = analysis.detection_probability()
    oracle_gap = abs(ms_value - exact)
    summary.checks.append(
        ValidationCheck(
            "M-S vs exact oracle",
            oracle_gap < 0.005,
            f"|M-S - exact| = {oracle_gap:.4f} (limit 0.005)",
        )
    )

    # 3. Fig. 9(a) agreement: analysis inside the simulation interval at
    # two operating points.
    for count, speed in ((60, 10.0), (240, 4.0)):
        point = onr_scenario(num_sensors=count, speed=speed)
        predicted = MarkovSpatialAnalysis(point, 3).detection_probability()
        result = MonteCarloSimulator(point, trials=trials, seed=seed).run()
        gap = abs(predicted - result.detection_probability)
        summary.checks.append(
            ValidationCheck(
                f"Fig. 9a agreement (N={count}, V={speed:g})",
                gap <= noise,
                f"analysis {predicted:.4f} vs simulation "
                f"{result.detection_probability:.4f} (tolerance {noise:.4f})",
            )
        )

    # 4. Fig. 8 shape: G >> gh >= g at the right edge.
    edge = onr_scenario(num_sensors=240, speed=10.0)
    g = required_body_truncation(edge, 0.99)
    gh = required_head_truncation(edge, 0.99)
    big_g = required_s_approach_truncation(edge, 0.99)
    summary.checks.append(
        ValidationCheck(
            "Fig. 8 ordering",
            g <= gh < big_g and big_g >= 2 * gh,
            f"g={g}, gh={gh}, G={big_g}",
        )
    )

    # 5. The headline runtime: full M-S analysis in well under a second.
    timer = time.perf_counter()
    MarkovSpatialAnalysis(edge, 3).detection_probability()
    ms_seconds = time.perf_counter() - timer
    summary.checks.append(
        ValidationCheck(
            "M-S runtime",
            ms_seconds < 1.0,
            f"{ms_seconds * 1000:.1f} ms (paper: 'within 1 minute')",
        )
    )

    summary.elapsed_seconds = time.perf_counter() - start
    return summary
