"""Integration: the engine's Poisson limit (Iyer & Manjunath, PAPERS.md).

Scale the sensor count ``N`` and the field area ``S`` together, so the
density ``ρ = N / S`` stays fixed.  A sensor covers the window ``i``
times with probability ``A_i / S`` and then reports
``Binomial(i, Pd)`` times, so the report count ``X`` tends to the
compound Poisson law ``Σ_i Poisson(ρ·A_i) ∘ Binomial(i, Pd)``, and the
binomial-to-Poisson error falls as ``1/N``.

The limit here shares no code with the engine: the ``A_i`` come from
the stripe-quadrature oracle in ``tests/region_oracles.py`` and the
compound Poisson pmf from Panjer's recursion over ``math.comb`` rows.
The engine side is :class:`ExactSpatialAnalysis` (region areas,
conditional report pmf, ``N``-fold convolution).
"""

import math

import numpy as np
import pytest

from repro.core.exact_spatial import ExactSpatialAnalysis
from repro.deployment.field import SensorField
from repro.experiments.presets import onr_scenario
from tests.region_oracles import stripe_regions

BASE_SENSORS = 120
SCALES = (1, 4, 16, 64)


def _compound_poisson_tail(areas, density, detect_prob, threshold):
    """``P[X >= threshold]`` for ``Σ_i Poisson(ρ·A_i) ∘ Binomial(i, Pd)``."""
    rates = density * np.asarray(areas, dtype=float)
    total_rate = rates.sum()
    # One Poisson(total_rate) stream of sensors, each reporting
    # Binomial(i, Pd) times with probability rates[i] / total_rate.
    jump = np.zeros(len(rates))
    for i in range(1, len(rates)):
        for m in range(i + 1):
            jump[m] += (rates[i] / total_rate) * (
                math.comb(i, m) * detect_prob**m * (1 - detect_prob) ** (i - m)
            )
    # Panjer: f(0) = exp(-λ(1 - q0)), f(n) = (λ/n) Σ_j j·q_j·f(n - j).
    pmf = [math.exp(-total_rate * (1.0 - jump[0]))]
    for n in range(1, threshold):
        top = min(n, len(jump) - 1)
        terms = (j * jump[j] * pmf[n - j] for j in range(1, top + 1))
        pmf.append(total_rate / n * sum(terms))
    return 1.0 - math.fsum(pmf)


@pytest.fixture(scope="module")
def gaps():
    """``(N, P_engine[X >= k] - P_limit[X >= k])`` per scale (ONR, V=4)."""
    base = onr_scenario(num_sensors=BASE_SENSORS, speed=4.0)
    limit = _compound_poisson_tail(
        stripe_regions(base.sensing_range, base.step_length, base.window),
        BASE_SENSORS / base.field_area,
        base.detect_prob,
        base.threshold,
    )
    side = base.field.width
    out = []
    for scale in SCALES:
        scenario = base.replace(
            num_sensors=BASE_SENSORS * scale,
            field=SensorField.square(side * math.sqrt(scale)),
        )
        engine = ExactSpatialAnalysis(scenario).detection_probability()
        out.append((scenario.num_sensors, engine - limit))
    return out


class TestPoissonLimit:
    def test_tends_to_compound_poisson_limit(self, gaps):
        errors = [gap for _, gap in gaps]
        assert all(gap > 0.0 for gap in errors)
        # Each 4x step in scale cuts the gap 4x, down to ~2.4e-5.
        for larger, smaller in zip(errors, errors[1:]):
            assert smaller / larger == pytest.approx(0.25, abs=0.01)
        assert errors[-1] < 3e-5

    def test_gap_is_order_one_over_n(self, gaps):
        # Measured: N·gap = 0.1860, 0.1855, 0.1853, 0.1853.
        for num_sensors, gap in gaps:
            assert num_sensors * gap == pytest.approx(0.1855, abs=1e-3)
