"""Unit tests for the MarkovChain oracle in tests/markov_oracles.py."""

import numpy as np
import pytest

from tests.markov_oracles import MarkovChain, MarkovChainError


@pytest.fixture
def two_state() -> MarkovChain:
    return MarkovChain([[0.9, 0.1], [0.4, 0.6]])


class TestConstruction:
    def test_valid_stochastic(self, two_state):
        assert two_state.num_states == 2
        assert not two_state.is_substochastic

    def test_non_square_rejected(self):
        with pytest.raises(MarkovChainError):
            MarkovChain([[0.5, 0.5]])

    def test_empty_rejected(self):
        with pytest.raises(MarkovChainError):
            MarkovChain(np.empty((0, 0)))

    def test_negative_entries_rejected(self):
        with pytest.raises(MarkovChainError):
            MarkovChain([[1.1, -0.1], [0.5, 0.5]])

    def test_row_sum_above_one_rejected(self):
        with pytest.raises(MarkovChainError):
            MarkovChain([[0.9, 0.3], [0.5, 0.5]])

    def test_substochastic_requires_flag(self):
        with pytest.raises(MarkovChainError):
            MarkovChain([[0.5, 0.3], [0.5, 0.5]])
        chain = MarkovChain([[0.5, 0.3], [0.5, 0.5]], substochastic=True)
        assert chain.is_substochastic

    def test_matrix_copy_is_defensive(self, two_state):
        matrix = two_state.transition_matrix
        matrix[0, 0] = 0.0
        assert two_state.transition_matrix[0, 0] == 0.9


class TestPropagation:
    def test_step(self, two_state):
        dist = two_state.step([1.0, 0.0])
        np.testing.assert_allclose(dist, [0.9, 0.1])

    def test_run_matches_power(self, two_state):
        dist = two_state.run([0.3, 0.7], steps=5)
        expected = np.array([0.3, 0.7]) @ two_state.power(5)
        np.testing.assert_allclose(dist, expected)

    def test_run_zero_steps_identity(self, two_state):
        np.testing.assert_allclose(two_state.run([0.2, 0.8], 0), [0.2, 0.8])

    def test_negative_steps_rejected(self, two_state):
        with pytest.raises(MarkovChainError):
            two_state.run([1.0, 0.0], -1)

    def test_stationary_limit(self, two_state):
        # Stationary distribution of [[.9,.1],[.4,.6]] is [0.8, 0.2].
        dist = two_state.run([1.0, 0.0], 200)
        np.testing.assert_allclose(dist, [0.8, 0.2], atol=1e-9)

    def test_bad_distribution_shape_rejected(self, two_state):
        with pytest.raises(MarkovChainError):
            two_state.step([1.0, 0.0, 0.0])

    def test_negative_distribution_rejected(self, two_state):
        with pytest.raises(MarkovChainError):
            two_state.step([1.5, -0.5])

    def test_overweight_distribution_rejected(self, two_state):
        with pytest.raises(MarkovChainError):
            two_state.step([0.9, 0.9])

    def test_substochastic_mass_leaks(self):
        chain = MarkovChain([[0.5, 0.25], [0.0, 0.5]], substochastic=True)
        dist = chain.run([1.0, 0.0], 3)
        assert dist.sum() < 1.0


class TestAbsorption:
    def test_absorbing_states_detected(self):
        chain = MarkovChain([[0.5, 0.5, 0.0], [0.0, 0.5, 0.5], [0.0, 0.0, 1.0]])
        assert list(chain.absorbing_states()) == [2]

    def test_expected_steps_gamblers_walk(self):
        # From state 0: each step moves forward w.p. 1/2 or stays.
        chain = MarkovChain([[0.5, 0.5, 0.0], [0.0, 0.5, 0.5], [0.0, 0.0, 1.0]])
        times = chain.expected_steps_to_absorption()
        np.testing.assert_allclose(times, [4.0, 2.0])

    def test_no_absorbing_state_rejected(self):
        chain = MarkovChain([[0.5, 0.5], [0.5, 0.5]])
        with pytest.raises(MarkovChainError):
            chain.expected_steps_to_absorption()

    def test_substochastic_rejected(self):
        chain = MarkovChain([[0.5, 0.1], [0.0, 1.0]], substochastic=True)
        with pytest.raises(MarkovChainError):
            chain.expected_steps_to_absorption()

    def test_unreachable_absorption_rejected(self):
        chain = MarkovChain(
            [[1.0, 0.0, 0.0], [0.0, 0.5, 0.5], [0.0, 0.0, 1.0]]
        )
        # State 0 is itself absorbing; restrict to state 2 only so state 0
        # becomes a transient state that can never reach it.
        with pytest.raises(MarkovChainError):
            chain.expected_steps_to_absorption(absorbing=[2])
