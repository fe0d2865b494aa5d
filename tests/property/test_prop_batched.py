"""Property-based tests pinning the batched engine to the Eq. 12 oracle.

The contracts the sweep/design/service layers rely on:

* **1e-12 parity** — every entry of a batched ``(N, k)`` grid matches the
  literal Eq. 12 matrix product (:mod:`repro.markov.oracle`: sequential
  ``math.lgamma`` stage pmfs, dense counting matrices) evaluated at that
  point — agreement to rounding, since the two associate their sums
  differently;
* **batch invariance** — a singleton evaluation, including the
  :class:`~repro.core.markov_spatial.MarkovSpatialAnalysis` view, is
  *bitwise* equal to the corresponding grid row (this is what makes the
  sweep layer's batched and per-point dispatch paths byte-identical);
* **survival monotonicity** — ``P_M[X >= k]`` is non-increasing in ``k``;
* **distribution parity** with the matrix oracle, sampled over scenarios,
  truncations and substeps.
"""

import math

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.batched import BatchedMarkovSpatialAnalysis
from repro.core.markov_spatial import MarkovSpatialAnalysis
from repro.core.scenario import Scenario
from repro.deployment.field import SensorField
from repro.markov.oracle import (
    distribution_gap,
    matrix_report_count_distribution,
)

PARITY_ATOL = 1e-12


def scenario_strategy():
    """Random sparse scenarios with M > ms, kept small enough that a
    property example costs a few milliseconds (ms <= 4, window <= ms + 5)."""

    @st.composite
    def build(draw):
        sensing_range = draw(st.floats(50.0, 300.0))
        ratio = draw(st.floats(0.3, 1.5))  # step / sensing diameter
        step = ratio * 2.0 * sensing_range
        ms = math.ceil(2.0 * sensing_range / step)
        window = ms + draw(st.integers(1, 5))
        num_sensors = draw(st.integers(5, 60))
        detect_prob = draw(st.floats(0.3, 1.0))
        aregion = 2 * window * sensing_range * step + math.pi * sensing_range**2
        side = math.sqrt(aregion) * draw(st.floats(4.0, 10.0))
        return Scenario(
            field=SensorField.square(side),
            num_sensors=num_sensors,
            sensing_range=sensing_range,
            target_speed=step,
            sensing_period=1.0,
            detect_prob=detect_prob,
            window=window,
            threshold=draw(st.integers(1, 4)),
        )

    return build()


def axes_strategy():
    """Small (N-axis, k-axis) grids; the k axis may run past the support."""
    return st.tuples(
        st.lists(st.integers(1, 80), min_size=1, max_size=3),
        st.lists(st.integers(0, 40), min_size=1, max_size=3),
    )


class TestBatchedScalarParity:
    @given(
        scenario=scenario_strategy(),
        axes=axes_strategy(),
        body_truncation=st.integers(1, 4),
        head_truncation=st.one_of(st.none(), st.integers(1, 4)),
        substeps=st.integers(1, 2),
        normalize=st.booleans(),
    )
    @settings(max_examples=40, deadline=None)
    def test_grid_matches_scalar_pointwise(
        self, scenario, axes, body_truncation, head_truncation, substeps, normalize
    ):
        num_sensors, thresholds = axes
        grid = BatchedMarkovSpatialAnalysis(
            scenario,
            body_truncation=body_truncation,
            head_truncation=head_truncation,
            substeps=substeps,
        ).detection_probability_grid(
            num_sensors=num_sensors, thresholds=thresholds, normalize=normalize
        )
        for i, count in enumerate(num_sensors):
            oracle = matrix_report_count_distribution(
                scenario.replace(num_sensors=count),
                body_truncation,
                head_truncation,
                substeps,
            )
            for j, threshold in enumerate(thresholds):
                reference = float(oracle[threshold:].sum())
                if normalize:
                    reference /= float(oracle.sum())
                assert abs(grid[i, j] - reference) <= PARITY_ATOL

    @given(scenario=scenario_strategy(), axes=axes_strategy())
    @settings(max_examples=25, deadline=None)
    def test_singleton_rows_bitwise_equal_grid_rows(self, scenario, axes):
        """Batch invariance: the sweep layer's byte-identity contract."""
        num_sensors, thresholds = axes
        grid = BatchedMarkovSpatialAnalysis(
            scenario
        ).detection_probability_grid(
            num_sensors=num_sensors, thresholds=thresholds
        )
        for i, count in enumerate(num_sensors):
            point = scenario.replace(num_sensors=count)
            singleton = BatchedMarkovSpatialAnalysis(
                point
            ).detection_probability_grid(thresholds=thresholds)
            assert (singleton[0] == grid[i]).all()
            view = MarkovSpatialAnalysis(point)
            for j, threshold in enumerate(thresholds):
                assert view.detection_probability(threshold) == grid[i, j]


class TestSurvivalMonotonicity:
    @given(
        scenario=scenario_strategy(),
        counts=st.lists(st.integers(1, 80), min_size=1, max_size=3),
    )
    @settings(max_examples=30, deadline=None)
    def test_survival_non_increasing_in_k(self, scenario, counts):
        engine = BatchedMarkovSpatialAnalysis(scenario)
        survival = engine.survival_grid(num_sensors=counts)
        assert (np.diff(survival, axis=1) <= 1e-15).all()
        # And through the normalised grid over an explicit ascending k axis.
        thresholds = list(range(0, survival.shape[1] + 2))
        grid = engine.detection_probability_grid(
            num_sensors=counts, thresholds=thresholds
        )
        assert (np.diff(grid, axis=1) <= 1e-15).all()
        assert (grid >= 0.0).all() and (grid <= 1.0 + 1e-12).all()


class TestMethodParity:
    @given(
        scenario=scenario_strategy(),
        body_truncation=st.integers(1, 3),
        head_truncation=st.one_of(st.none(), st.integers(1, 3)),
        substeps=st.integers(1, 2),
    )
    @settings(max_examples=25, deadline=None)
    def test_convolution_matches_matrix(
        self, scenario, body_truncation, head_truncation, substeps
    ):
        """The unit suite's fixture check, sampled over scenarios."""
        analysis = MarkovSpatialAnalysis(
            scenario,
            body_truncation=body_truncation,
            head_truncation=head_truncation,
            substeps=substeps,
        )
        gap = distribution_gap(
            analysis.report_count_distribution(),
            scenario,
            body_truncation,
            head_truncation,
            substeps,
        )
        assert gap <= PARITY_ATOL

    @given(
        scenario=scenario_strategy(),
        body_truncation=st.integers(1, 3),
        counts=st.lists(st.integers(1, 80), min_size=1, max_size=3),
    )
    @settings(max_examples=25, deadline=None)
    def test_batched_distribution_matches_matrix(
        self, scenario, body_truncation, counts
    ):
        """Eq. 12 parity for every row of a multi-``N`` stack."""
        stack = BatchedMarkovSpatialAnalysis(
            scenario, body_truncation=body_truncation
        ).report_count_distributions(counts)
        for row, count in zip(stack, counts):
            gap = distribution_gap(
                row, scenario.replace(num_sensors=count), body_truncation
            )
            assert gap <= PARITY_ATOL
