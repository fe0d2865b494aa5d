"""Property-based tests for the size-dispatched convolution kernels.

Pins the two guarantees the engine relies on (see
``repro.core.kernels``):

* the shift-and-add loop is **bitwise batch-invariant** — singleton rows
  equal grid rows byte for byte, on arbitrary stacks;
* the shipped dispatch policy (and the FFT forced at every width) stays
  within 1e-12 of the shift-and-add loop on random pmf stacks, at the
  raw-kernel level and through a full
  :class:`~repro.core.batched.BatchedMarkovSpatialAnalysis` grid.

The pure loop and the always-FFT policy are reached by patching
``FFT_MIN_WIDTH`` to ``sys.maxsize`` and ``0``.
"""

import sys

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from repro.cache import clear_analysis_cache
from repro.core import kernels
from repro.core.batched import BatchedMarkovSpatialAnalysis
from repro.core.kernels import (
    _convolve_reference,
    batch_convolve,
    batch_convolve_power,
)

from tests.property.test_prop_batched import PARITY_ATOL, scenario_strategy


@st.composite
def pmf_stack_pair(draw, max_width=120):
    """Two aligned pmf stacks with independent random supports."""
    rows = draw(st.integers(1, 4))
    widths = draw(st.tuples(st.integers(1, max_width), st.integers(1, max_width)))
    stacks = []
    for width in widths:
        raw = draw(
            hnp.arrays(
                np.float64,
                (rows, width),
                elements=st.floats(0.0, 1.0, allow_nan=False),
            )
        )
        totals = raw.sum(axis=1, keepdims=True)
        # Normalise rows with mass; keep all-zero rows as-is (they are a
        # legal, adversarial input: zero mass must convolve to zero).
        np.divide(raw, totals, out=raw, where=totals > 0.0)
        stacks.append(raw)
    return tuple(stacks)


def _under_min_width(min_width, fn, *args):
    """``fn(*args)`` with ``FFT_MIN_WIDTH`` patched to ``min_width``."""
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(kernels, "FFT_MIN_WIDTH", min_width)
        return fn(*args)


class TestKernelProperties:
    @given(pair=pmf_stack_pair())
    @settings(max_examples=60, deadline=None)
    def test_auto_within_1e12_of_reference(self, pair):
        a, b = pair
        ref = _under_min_width(sys.maxsize, batch_convolve, a, b)
        auto = batch_convolve(a, b)
        fft = _under_min_width(0, batch_convolve, a, b)
        assert np.abs(auto - ref).max(initial=0.0) <= PARITY_ATOL
        assert np.abs(fft - ref).max(initial=0.0) <= PARITY_ATOL

    @given(pair=pmf_stack_pair())
    @settings(max_examples=40, deadline=None)
    def test_reference_bitwise_batch_invariant(self, pair):
        a, b = pair
        full = _convolve_reference(a, b)
        for row in range(a.shape[0]):
            single = _convolve_reference(a[row : row + 1], b[row : row + 1])
            assert (single[0] == full[row]).all()

    @given(pair=pmf_stack_pair(max_width=50), power=st.integers(0, 6))
    @settings(max_examples=30, deadline=None)
    def test_power_auto_within_1e12(self, pair, power):
        base, _ = pair
        ref = _under_min_width(sys.maxsize, batch_convolve_power, base, power)
        auto = batch_convolve_power(base, power)
        assert np.abs(auto - ref).max(initial=0.0) <= PARITY_ATOL


def _cold_grid(scenario, axes):
    """A default-engine grid from a cold cache, leaving the cache cold:
    the cache key has no kernel slot, so patched-policy stacks must not
    leak into other tests."""
    clear_analysis_cache()
    grid = BatchedMarkovSpatialAnalysis(scenario).detection_probability_grid(
        **axes
    )
    clear_analysis_cache()
    return grid


class TestEngineBackendProperties:
    @given(scenario=scenario_strategy())
    @settings(max_examples=15, deadline=None)
    def test_engine_auto_within_1e12_of_reference(self, scenario):
        axes = dict(
            num_sensors=[scenario.num_sensors, scenario.num_sensors * 2],
            thresholds=[scenario.threshold, scenario.threshold + 2],
        )
        ref = _under_min_width(sys.maxsize, _cold_grid, scenario, axes)
        auto = _cold_grid(scenario, axes)
        assert np.abs(auto - ref).max() <= PARITY_ATOL
