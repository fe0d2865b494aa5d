"""Property-based tests for the Markov substrate."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.markov.counting import counting_transition_matrix
from tests.markov_oracles import MarkovChain, merge_tail, propagate_counts


def pmf_strategy(max_size=6, substochastic=False):
    @st.composite
    def build(draw):
        raw = draw(st.lists(st.floats(0.0, 1.0), min_size=1, max_size=max_size))
        total = sum(raw)
        if total < 1e-6:
            return np.array([1.0] + [0.0] * (len(raw) - 1))
        scale = draw(st.floats(0.2, 1.0)) if substochastic else 1.0
        return np.array(raw) * (scale / total)

    return build()


def stochastic_matrix_strategy(max_states=5):
    @st.composite
    def build(draw):
        n = draw(st.integers(1, max_states))
        rows = [
            draw(
                st.lists(st.floats(0.001, 1.0), min_size=n, max_size=n)
            )
            for _ in range(n)
        ]
        matrix = np.array(rows)
        return matrix / matrix.sum(axis=1, keepdims=True)

    return build()


class TestMarkovChainProperties:
    @given(matrix=stochastic_matrix_strategy(), steps=st.integers(0, 8))
    @settings(max_examples=100)
    def test_propagation_preserves_mass(self, matrix, steps):
        chain = MarkovChain(matrix)
        start = np.zeros(chain.num_states)
        start[0] = 1.0
        out = chain.run(start, steps)
        assert out.sum() == pytest.approx(1.0, abs=1e-9)
        assert (out >= -1e-12).all()

    @given(matrix=stochastic_matrix_strategy(), steps=st.integers(0, 6))
    @settings(max_examples=60)
    def test_run_equals_power(self, matrix, steps):
        chain = MarkovChain(matrix)
        start = np.zeros(chain.num_states)
        start[-1] = 1.0
        np.testing.assert_allclose(
            chain.run(start, steps), start @ chain.power(steps), atol=1e-9
        )


class TestCountingChainProperties:
    @given(pmf=pmf_strategy(), steps=st.integers(1, 5))
    @settings(max_examples=100, deadline=None)
    def test_matrix_equals_convolution(self, pmf, steps):
        """The central M-S identity: shift-matrix products == convolutions."""
        support = (pmf.size - 1) * steps + 1
        matrix = counting_transition_matrix(pmf, support, absorb_overflow=False)
        by_matrix = np.zeros(support)
        by_matrix[0] = 1.0
        by_convolution = np.array([1.0])
        for _ in range(steps):
            by_matrix = by_matrix @ matrix
            by_convolution = propagate_counts(by_convolution, pmf)
        np.testing.assert_allclose(by_matrix, by_convolution, atol=1e-10)

    @given(pmf=pmf_strategy(substochastic=True), states=st.integers(1, 12))
    @settings(max_examples=100)
    def test_absorbing_matrix_preserves_pmf_mass(self, pmf, states):
        matrix = counting_transition_matrix(pmf, states, absorb_overflow=True)
        assert (matrix.sum(axis=1) <= pmf.sum() + 1e-9).all()
        np.testing.assert_allclose(matrix.sum(axis=1), pmf.sum(), atol=1e-9)

    @given(pmf=pmf_strategy(), threshold=st.integers(0, 10))
    @settings(max_examples=100)
    def test_merge_tail_preserves_mass_and_head(self, pmf, threshold):
        merged = merge_tail(pmf, threshold)
        assert merged.sum() == pytest.approx(pmf.sum(), abs=1e-12)
        head = min(threshold, pmf.size)
        np.testing.assert_allclose(merged[:head], pmf[:head])
