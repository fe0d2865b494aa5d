"""Property-based tests for report-count distribution machinery."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.report_dist import (
    binomial_pmf,
    conditional_report_pmf,
    convolution_power,
    exact_report_pmf,
    occupancy_pmf,
    per_sensor_field_pmf,
    stage_report_pmf,
    stage_report_pmf_naive,
)


def subareas_strategy(max_coverage=6):
    """Non-degenerate subarea arrays with zero padding at index 0."""
    return st.lists(
        st.floats(0.0, 100.0), min_size=1, max_size=max_coverage
    ).map(lambda weights: np.array([0.0] + [w + 1e-6 for w in weights]))


class TestBinomialProperties:
    @given(n=st.integers(0, 60), p=st.floats(0.0, 1.0))
    def test_normalised_and_non_negative(self, n, p):
        pmf = binomial_pmf(n, p)
        assert (pmf >= 0.0).all()
        assert pmf.sum() == pytest.approx(1.0, abs=1e-9)

    @given(n=st.integers(1, 40), p=st.floats(0.0, 1.0))
    def test_mean(self, n, p):
        pmf = binomial_pmf(n, p)
        assert float(np.arange(n + 1) @ pmf) == pytest.approx(n * p, abs=1e-8)


class TestConditionalPmfProperties:
    @given(subareas=subareas_strategy(), pd=st.floats(0.01, 1.0))
    @settings(max_examples=200)
    def test_is_distribution(self, subareas, pd):
        pmf = conditional_report_pmf(subareas, pd)
        assert (pmf >= 0.0).all()
        assert pmf.sum() == pytest.approx(1.0, abs=1e-9)

    @given(subareas=subareas_strategy(), pd=st.floats(0.01, 1.0))
    @settings(max_examples=200)
    def test_mean_is_area_weighted_coverage(self, subareas, pd):
        pmf = conditional_report_pmf(subareas, pd)
        mean = float(np.arange(pmf.size) @ pmf)
        coverages = np.arange(subareas.size)
        expected = pd * float(coverages @ subareas) / subareas.sum()
        assert mean == pytest.approx(expected, rel=1e-9)


def _unmemoised_mix(subareas, pd):
    """The conditional mix rebuilt from fresh ``binomial_pmf`` rows, in the
    same accumulation order as the engine."""
    areas = np.clip(np.asarray(subareas, dtype=float), 0.0, None)
    total = areas.sum()
    top = int(np.flatnonzero(areas)[-1])
    pmf = np.zeros(top + 1)
    for coverage in range(1, top + 1):
        weight = areas[coverage] / total
        if weight != 0.0:
            pmf[: coverage + 1] += weight * binomial_pmf(coverage, pd)
    return pmf


#: ``Pd`` over the closed unit interval, endpoints drawn explicitly.
closed_unit = st.one_of(st.sampled_from([0.0, 1.0]), st.floats(0.0, 1.0))


class TestBinomialRowMemo:
    """``conditional_report_pmf`` reads its ``Binomial(i, Pd)`` rows from
    the analysis cache; the memo must not move a single bit."""

    @given(subareas=subareas_strategy(max_coverage=12), pd=closed_unit)
    @settings(max_examples=200, deadline=None)
    def test_bitwise_equal_to_fresh_mix(self, subareas, pd):
        from repro import clear_analysis_cache

        clear_analysis_cache()
        # Rows for another Pd sit in the cache first: a key that dropped
        # Pd would serve them here.
        conditional_report_pmf(subareas, 0.5 * (1.0 - pd))
        reference = _unmemoised_mix(subareas, pd)
        cold = conditional_report_pmf(subareas, pd)
        warm = conditional_report_pmf(subareas, pd)
        assert cold.tobytes() == reference.tobytes()
        assert warm.tobytes() == reference.tobytes()

    @pytest.mark.parametrize("pd", [0.0, 0.37, 1.0])
    def test_rows_read_only_and_cleared(self, pd):
        from repro import analysis_cache, clear_analysis_cache

        clear_analysis_cache()
        conditional_report_pmf([0.0, 1.0, 0.0, 2.0], pd)
        cache = analysis_cache()
        for coverage in (1, 3):
            key = ("binomial_pmf", coverage, pd)
            assert key in cache
            _, row = cache.lookup(key)
            assert not row.flags.writeable
            assert row.tobytes() == binomial_pmf(coverage, pd).tobytes()
        assert ("binomial_pmf", 2, pd) not in cache  # zero weight: unused
        clear_analysis_cache()
        assert ("binomial_pmf", 1, pd) not in cache


class TestStagePmfProperties:
    @given(
        subareas=subareas_strategy(max_coverage=4),
        pd=st.floats(0.1, 1.0),
        n=st.integers(1, 25),
        g=st.integers(0, 3),
    )
    @settings(max_examples=60, deadline=None)
    def test_naive_equals_fast(self, subareas, pd, n, g):
        field_area = subareas.sum() * 50.0
        fast = stage_report_pmf(subareas, field_area, n, pd, g)
        naive = stage_report_pmf_naive(subareas, field_area, n, pd, g)
        np.testing.assert_allclose(fast, naive, atol=1e-12)

    @given(
        subareas=subareas_strategy(),
        pd=st.floats(0.1, 1.0),
        n=st.integers(1, 30),
        g=st.integers(0, 5),
    )
    @settings(max_examples=100, deadline=None)
    def test_mass_equals_occupancy_cdf(self, subareas, pd, n, g):
        field_area = subareas.sum() * 20.0
        pmf = stage_report_pmf(subareas, field_area, n, pd, g)
        occupancy = occupancy_pmf(float(subareas.sum()), field_area, n, g)
        assert pmf.sum() == pytest.approx(float(occupancy.sum()), rel=1e-9)


class TestExactPmfProperties:
    @given(
        subareas=subareas_strategy(),
        pd=st.floats(0.1, 1.0),
        n=st.integers(0, 50),
    )
    @settings(max_examples=100, deadline=None)
    def test_exact_pmf_is_distribution(self, subareas, pd, n):
        field_area = subareas.sum() * 10.0
        pmf = exact_report_pmf(subareas, field_area, n, pd)
        assert (pmf >= -1e-12).all()
        assert pmf.sum() == pytest.approx(1.0, abs=1e-8)

    @given(
        subareas=subareas_strategy(max_coverage=4),
        pd=st.floats(0.1, 1.0),
        n=st.integers(1, 12),
    )
    @settings(max_examples=50, deadline=None)
    def test_exact_is_limit_of_truncated(self, subareas, pd, n):
        """stage_report_pmf with g = N equals the exact N-fold convolution
        restricted to the region... they must agree because occupancy is no
        longer truncated."""
        field_area = subareas.sum() * 10.0
        truncated = stage_report_pmf(subareas, field_area, n, pd, max_sensors=n)
        exact = exact_report_pmf(subareas, field_area, n, pd)
        size = min(truncated.size, exact.size)
        np.testing.assert_allclose(truncated[:size], exact[:size], atol=1e-9)
        assert abs(truncated[size:]).sum() == pytest.approx(0.0, abs=1e-12)
        assert abs(exact[size:]).sum() == pytest.approx(0.0, abs=1e-12)


class TestConvolutionPowerProperties:
    @given(
        pmf=st.lists(st.floats(0.01, 1.0), min_size=1, max_size=5),
        a=st.integers(0, 6),
        b=st.integers(0, 6),
    )
    @settings(max_examples=100)
    def test_power_additivity(self, pmf, a, b):
        base = np.array(pmf) / sum(pmf)
        combined = convolution_power(base, a + b)
        split = np.convolve(convolution_power(base, a), convolution_power(base, b))
        np.testing.assert_allclose(combined, split, atol=1e-10)


class TestPerSensorFieldPmfProperties:
    @given(subareas=subareas_strategy(), pd=st.floats(0.1, 1.0))
    @settings(max_examples=100)
    def test_is_distribution(self, subareas, pd):
        pmf = per_sensor_field_pmf(subareas, subareas.sum() * 3.0, pd)
        assert (pmf >= 0.0).all()
        assert pmf.sum() == pytest.approx(1.0, abs=1e-9)
