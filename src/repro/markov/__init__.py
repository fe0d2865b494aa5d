"""Counting chains (Figs. 5-7) and the literal Eq. 12 matrix oracle."""

from repro.markov.counting import counting_transition_matrix, validate_pmf

__all__ = ["counting_transition_matrix", "validate_pmf"]
