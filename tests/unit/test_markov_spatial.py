"""Unit tests for repro.core.markov_spatial (the M-S-approach).

Engine-vs-matrix checks compare against :mod:`repro.markov.oracle`, the
literal Eq. 12 matrix product, which shares only the region
decomposition with the engine.
"""

import numpy as np
import pytest

from repro.core.batched import BatchedMarkovSpatialAnalysis
from repro.core.markov_spatial import MarkovSpatialAnalysis
from repro.errors import AnalysisError
from repro.experiments.presets import onr_scenario
from repro.markov.oracle import (
    distribution_gap,
    ms_state_count,
    ms_transition_matrices,
)
from tests.markov_oracles import matrix_detection_probability


@pytest.fixture
def analysis(onr) -> MarkovSpatialAnalysis:
    return MarkovSpatialAnalysis(onr, body_truncation=3)


class TestConstruction:
    def test_defaults(self, analysis):
        assert analysis.body_truncation == 3
        assert analysis.head_truncation == 3

    def test_separate_head_truncation(self, onr):
        msa = MarkovSpatialAnalysis(onr, body_truncation=2, head_truncation=5)
        assert msa.head_truncation == 5

    def test_invalid_truncations_rejected(self, onr):
        with pytest.raises(AnalysisError):
            MarkovSpatialAnalysis(onr, body_truncation=0)
        with pytest.raises(AnalysisError):
            MarkovSpatialAnalysis(onr, body_truncation=2, head_truncation=0)

    def test_small_window_rejected(self):
        with pytest.raises(AnalysisError):
            MarkovSpatialAnalysis(onr_scenario(window=4, threshold=1))


class TestStagePmfs:
    def test_head_mass_is_xi_h(self, analysis):
        assert analysis.head_stage_pmf().sum() == pytest.approx(
            analysis.head_stage_accuracy()
        )

    def test_body_mass_is_xi(self, analysis):
        assert analysis.body_stage_pmf().sum() == pytest.approx(
            analysis.body_stage_accuracy()
        )

    def test_head_mass_below_body_mass(self, analysis):
        # The head NEDR is bigger, so truncating at the same g loses more.
        assert analysis.head_stage_accuracy() < analysis.body_stage_accuracy()

    def test_tail_masses_equal_body_mass(self, analysis):
        # Same NEDR area, same truncation => same occupancy CDF (Eq. 9).
        xi = analysis.body_stage_accuracy()
        for j in range(1, analysis.scenario.ms + 1):
            assert analysis.tail_stage_pmf(j).sum() == pytest.approx(xi)

    def test_tail_support_shrinks_with_j(self, analysis):
        # Tail period T_j supports at most (ms + 1 - j) * g reports.
        g = analysis.body_truncation
        ms = analysis.scenario.ms
        for j in range(1, ms + 1):
            pmf = analysis.tail_stage_pmf(j)
            max_reports = np.flatnonzero(pmf > 0)[-1]
            assert max_reports <= (ms + 1 - j) * g

    def test_analysis_accuracy_formula(self, analysis):
        expected = analysis.head_stage_accuracy() * analysis.body_stage_accuracy() ** (
            analysis.scenario.window - 1
        )
        assert analysis.analysis_accuracy() == pytest.approx(expected)

    def test_paper_accuracy_ballpark(self, onr):
        # Section 4 quotes 95.6% accuracy at N = 240, V = 10, gh = g = 3.
        # The literal Eqs. 7/9/14 evaluate to 97.6%; we assert the shared
        # qualitative claim (a few percent of mass is dropped, recovered by
        # normalisation) and record the numeric gap in EXPERIMENTS.md.
        msa = MarkovSpatialAnalysis(onr, body_truncation=3, head_truncation=3)
        assert 0.94 < msa.analysis_accuracy() < 0.99


class TestResultDistribution:
    def test_convolution_matches_matrix(self, analysis):
        gap = distribution_gap(
            analysis.report_count_distribution(), analysis.scenario, 3
        )
        assert gap <= 1e-12

    def test_total_mass_is_eta_ms(self, analysis):
        dist = analysis.report_count_distribution()
        assert dist.sum() == pytest.approx(analysis.analysis_accuracy())

    def test_state_count(self, analysis):
        # M * Z + 1 with Z = (ms + 1) * gh = 5 * 3.
        assert ms_state_count(analysis.scenario, 3) == 20 * 15 + 1

    def test_transition_matrix_shapes(self, analysis):
        states = ms_state_count(analysis.scenario, 3)
        matrices = ms_transition_matrices(analysis.scenario, 3)
        assert len(matrices) == 2 + analysis.scenario.ms
        for matrix in matrices:
            assert matrix.shape == (states, states)
        assert analysis.report_count_distribution().size <= states


class TestDetectionProbability:
    def test_in_unit_interval(self, analysis):
        assert 0.0 <= analysis.detection_probability() <= 1.0

    def test_normalized_above_unnormalized(self, analysis):
        assert analysis.detection_probability(
            normalize=False
        ) < analysis.detection_probability(normalize=True)

    def test_monotone_in_threshold(self, analysis):
        values = [analysis.detection_probability(threshold=k) for k in (1, 3, 5, 10)]
        assert values == sorted(values, reverse=True)

    def test_monotone_in_sensor_count(self):
        values = [
            MarkovSpatialAnalysis(onr_scenario(num_sensors=n)).detection_probability()
            for n in (60, 120, 240)
        ]
        assert values == sorted(values)

    def test_faster_target_detected_more_often(self):
        # The paper's headline observation about sparse networks.
        slow = MarkovSpatialAnalysis(
            onr_scenario(num_sensors=120, speed=4.0)
        ).detection_probability()
        fast = MarkovSpatialAnalysis(
            onr_scenario(num_sensors=120, speed=10.0)
        ).detection_probability()
        assert fast > slow

    def test_matrix_method_same_probability(self, analysis):
        assert analysis.detection_probability() == pytest.approx(
            matrix_detection_probability(analysis.scenario, 3), abs=1e-12
        )

    @pytest.mark.parametrize("threshold", [1, 3, 7])
    @pytest.mark.parametrize("normalize", [True, False])
    def test_bitwise_equal_to_grid_cell(self, onr, threshold, normalize):
        """The singleton view is row 0 of the batched engine, not a copy."""
        single = MarkovSpatialAnalysis(onr, 3).detection_probability(
            threshold=threshold, normalize=normalize
        )
        grid = BatchedMarkovSpatialAnalysis(onr, 3).detection_probability_grid(
            [onr.num_sensors], [threshold], normalize=normalize
        )
        assert single == grid[0, 0]

    def test_negative_threshold_rejected(self, analysis):
        with pytest.raises(AnalysisError):
            analysis.detection_probability(threshold=-1)

    def test_threshold_beyond_support(self, analysis):
        assert analysis.detection_probability(threshold=10_000) == 0.0

    def test_threshold_at_exact_support_edge(self, analysis):
        """``k == distribution.size`` must take the beyond-support branch
        (``dist[k:]`` would be an empty-but-valid slice one index later)."""
        size = analysis.report_count_distribution().size
        assert analysis.detection_probability(threshold=size) == 0.0
        assert analysis.detection_probability(threshold=size - 1) >= 0.0

    def test_zero_mass_error_names_truncations(self, tiny):
        """With truncations that capture no mass, the normalised result is
        undefined; the error must name the offending parameters so a user
        can fix their configuration without reading the source."""
        starved = MarkovSpatialAnalysis(
            tiny.replace(num_sensors=500_000),
            body_truncation=1,
            head_truncation=1,
        )
        with pytest.raises(AnalysisError) as excinfo:
            starved.detection_probability()
        message = str(excinfo.value)
        assert "num_sensors=500000" in message
        assert "g=1" in message and "gh=1" in message
        assert "substeps=1" in message
        assert "increase the truncations" in message
        # The unnormalised tail is still well-defined (it is just zero).
        assert starved.detection_probability(normalize=False) == 0.0


class TestSubsteps:
    """Section 3.4.5's sketched refinement: slice each NEDR into substeps."""

    def test_substep_accuracy_beats_base_at_same_truncation(self, onr):
        base = MarkovSpatialAnalysis(onr, 2, 2, substeps=1)
        sliced = MarkovSpatialAnalysis(onr, 2, 2, substeps=3)
        assert sliced.analysis_accuracy() > base.analysis_accuracy()

    def test_smaller_g_with_substeps_matches_larger_g(self, onr):
        # g=2, Q=3 captures at least the accuracy of g=3, Q=1.
        refined = MarkovSpatialAnalysis(onr, 2, 2, substeps=3)
        paper = MarkovSpatialAnalysis(onr, 3, 3, substeps=1)
        assert refined.analysis_accuracy() >= paper.analysis_accuracy() - 1e-6
        assert refined.detection_probability() == pytest.approx(
            paper.detection_probability(), abs=1e-3
        )

    def test_substeps_converge_to_exact(self, onr):
        from repro.core.exact_spatial import ExactSpatialAnalysis

        exact = ExactSpatialAnalysis(onr).detection_probability()
        refined = MarkovSpatialAnalysis(
            onr, 3, 3, substeps=4
        ).detection_probability()
        assert refined == pytest.approx(exact, abs=2e-3)

    def test_engines_agree_with_substeps(self, onr):
        analysis = MarkovSpatialAnalysis(onr, 2, 2, substeps=2)
        gap = distribution_gap(
            analysis.report_count_distribution(), onr, 2, 2, substeps=2
        )
        assert gap <= 1e-12

    def test_substep_one_is_base_method(self, onr):
        base = MarkovSpatialAnalysis(onr, 3).report_count_distribution()
        explicit = MarkovSpatialAnalysis(
            onr, 3, substeps=1
        ).report_count_distribution()
        np.testing.assert_array_equal(base, explicit)

    def test_invalid_substeps_rejected(self, onr):
        with pytest.raises(AnalysisError):
            MarkovSpatialAnalysis(onr, 3, substeps=0)
