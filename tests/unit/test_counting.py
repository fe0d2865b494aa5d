"""Unit tests for repro.markov.counting and its convolution-view oracles."""

import numpy as np
import pytest

from repro.errors import DistributionError
from repro.markov.counting import counting_transition_matrix, validate_pmf
from tests.markov_oracles import merge_tail, propagate_counts


class TestValidatePmf:
    def test_valid(self):
        out = validate_pmf([0.5, 0.5])
        np.testing.assert_allclose(out, [0.5, 0.5])

    def test_substochastic_needs_flag(self):
        with pytest.raises(DistributionError):
            validate_pmf([0.4, 0.4])
        validate_pmf([0.4, 0.4], substochastic=True)

    def test_negative_rejected(self):
        with pytest.raises(DistributionError):
            validate_pmf([1.2, -0.2])

    def test_mass_above_one_rejected(self):
        with pytest.raises(DistributionError):
            validate_pmf([0.8, 0.8], substochastic=True)

    def test_empty_rejected(self):
        with pytest.raises(DistributionError):
            validate_pmf([])


class TestCountingTransitionMatrix:
    def test_shift_structure(self):
        matrix = counting_transition_matrix([0.7, 0.3], 3)
        expected = np.array([[0.7, 0.3, 0.0], [0.0, 0.7, 0.3], [0.0, 0.0, 1.0]])
        np.testing.assert_allclose(matrix, expected)

    def test_overflow_absorbs_in_last_state(self):
        matrix = counting_transition_matrix([0.5, 0.25, 0.25], 2)
        # From state 1, +1 and +2 both exceed -> both land in state 1.
        np.testing.assert_allclose(matrix[1], [0.0, 1.0])

    def test_overflow_dropped_when_disabled(self):
        matrix = counting_transition_matrix(
            [0.5, 0.25, 0.25], 2, absorb_overflow=False
        )
        np.testing.assert_allclose(matrix[1], [0.0, 0.5])

    def test_substochastic_pmf_allowed(self):
        matrix = counting_transition_matrix([0.5, 0.2], 4)
        assert matrix[0].sum() == pytest.approx(0.7)

    def test_invalid_states_rejected(self):
        with pytest.raises(DistributionError):
            counting_transition_matrix([1.0], 0)


class TestPropagateCounts:
    def test_matches_matrix_step(self):
        pmf = np.array([0.6, 0.3, 0.1])
        dist = np.array([0.5, 0.5, 0.0, 0.0])
        by_convolution = propagate_counts(dist, pmf)
        matrix = counting_transition_matrix(pmf, by_convolution.size)
        padded = np.zeros(by_convolution.size)
        padded[: dist.size] = dist
        by_matrix = padded @ matrix
        np.testing.assert_allclose(by_convolution, by_matrix)

    def test_grows_support(self):
        out = propagate_counts([1.0], [0.5, 0.5])
        assert out.size == 2

    def test_empty_distribution_rejected(self):
        with pytest.raises(DistributionError):
            propagate_counts([], [1.0])


class TestMergeTail:
    def test_merges_mass(self):
        out = merge_tail([0.1, 0.2, 0.3, 0.4], threshold=2)
        np.testing.assert_allclose(out, [0.1, 0.2, 0.7])

    def test_short_distribution_padded(self):
        out = merge_tail([0.9, 0.1], threshold=4)
        np.testing.assert_allclose(out, [0.9, 0.1, 0.0, 0.0, 0.0])

    def test_threshold_zero_merges_everything(self):
        out = merge_tail([0.25, 0.25, 0.5], threshold=0)
        np.testing.assert_allclose(out, [1.0])

    def test_negative_threshold_rejected(self):
        with pytest.raises(DistributionError):
            merge_tail([1.0], -1)
