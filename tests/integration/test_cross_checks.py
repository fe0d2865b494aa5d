"""Cross-checks between independent computational paths.

Each test computes the same quantity two structurally different ways —
the strongest kind of regression test this library can have.
"""

import numpy as np
import pytest

from repro.markov.counting import counting_transition_matrix
from tests.markov_oracles import MarkovChain, merge_tail


class TestAbsorptionVsDirectEnumeration:
    def test_expected_first_passage_via_absorbing_chain(self):
        """For a homogeneous counting process, the absorbing-chain formula
        for E[steps to reach >= k] must match direct enumeration of the
        first-passage distribution."""
        pmf = np.array([0.55, 0.3, 0.15])  # reports per period
        threshold = 4
        # Chain over states 0..threshold with >= threshold merged/absorbing.
        matrix = counting_transition_matrix(pmf, threshold + 1, absorb_overflow=True)
        chain = MarkovChain(matrix)
        by_formula = chain.expected_steps_to_absorption(absorbing=[threshold])[0]

        # Direct: propagate the distribution, accumulate E[T] mass by mass.
        distribution = np.zeros(threshold + 1)
        distribution[0] = 1.0
        expectation = 0.0
        absorbed = 0.0
        for step in range(1, 10_000):
            distribution = distribution @ matrix
            newly = distribution[threshold] - absorbed
            expectation += step * newly
            absorbed = distribution[threshold]
            if 1.0 - absorbed < 1e-14:
                break
        assert by_formula == pytest.approx(expectation, rel=1e-9)

    def test_absorption_probability_matches_convolution_tail(self):
        """P[absorbed within M steps] == P[sum of M increments >= k]."""
        pmf = np.array([0.7, 0.2, 0.1])
        threshold, steps = 3, 6
        matrix = counting_transition_matrix(pmf, threshold + 1, absorb_overflow=True)
        start = np.zeros(threshold + 1)
        start[0] = 1.0
        via_chain = MarkovChain(matrix).run(start, steps)[threshold]

        total = np.array([1.0])
        for _ in range(steps):
            total = np.convolve(total, pmf)
        via_convolution = merge_tail(total, threshold)[threshold]
        assert via_chain == pytest.approx(via_convolution, abs=1e-12)


class TestPublicApiSurface:
    def test_top_level_exports_resolve(self):
        import repro

        for name in repro.__all__:
            assert getattr(repro, name) is not None, name

    def test_subpackage_exports_resolve(self):
        import importlib

        for module_name in (
            "repro.core",
            "repro.geometry",
            "repro.deployment",
            "repro.markov",
            "repro.simulation",
            "repro.detection",
            "repro.tracking",
            "repro.network",
            "repro.experiments",
        ):
            module = importlib.import_module(module_name)
            for name in getattr(module, "__all__", []):
                assert getattr(module, name) is not None, (module_name, name)

    def test_cli_plot_specs_reference_real_experiments(self):
        from repro.experiments.cli import _EXPERIMENTS, _PLOT_SPECS

        # Every plot spec belongs to an experiment the figures module
        # produces; check ids match the figure functions' record ids by
        # running the cheapest ones.
        from repro.experiments import figures

        produced = {
            "FIG8": figures.fig8_required_truncation(node_counts=(60,)),
            "EXT-EXACT": figures.truncation_ablation(truncations=(1,)),
        }
        for experiment_id, record in produced.items():
            x_column, y_columns, group_by = _PLOT_SPECS[experiment_id]
            assert x_column in record.columns
            for column in y_columns:
                assert column in record.columns, (experiment_id, column)
        assert len(_EXPERIMENTS) >= 20  # the CLI covers every experiment
