"""Unit tests for repro.core.kernels — the size-dispatched convolution.

Covers the dispatch policy's contracts:

* FFT-vs-shift-and-add conformance on adversarial stacks (tiny
  supports, near-zero mass rows, mixed-magnitude pmfs);
* the width dispatch, the a-priori round-off guard and its
  ``kernel.fallbacks`` / ``kernel.fft_dispatch`` counters;
* the committed golden grids reproduced **bitwise** by the pure
  shift-and-add loop (``FFT_MIN_WIDTH`` patched to ``sys.maxsize``), and
  within 1e-12 by the shipped policy.
"""

import sys

import numpy as np
import pytest

from repro import obs
from repro.cache import clear_analysis_cache
from repro.core import kernels
from repro.core.batched import BatchedMarkovSpatialAnalysis
from repro.core.kernels import (
    FFT_GUARD_ATOL,
    FFT_MIN_WIDTH,
    _convolve_fft,
    _convolve_reference,
    batch_convolve,
    batch_convolve_power,
    fft_roundoff_bound,
)
from repro.errors import AnalysisError
from repro.experiments.presets import onr_scenario, small_scenario


@pytest.fixture
def fresh_cache():
    """Cold analysis cache in and out: the cache key has no kernel slot,
    so stacks computed under a patched ``FFT_MIN_WIDTH`` must not leak."""
    clear_analysis_cache()
    yield
    clear_analysis_cache()


def _engine_grid(scenario, min_width, monkeypatch, axes):
    """An engine grid under ``FFT_MIN_WIDTH = min_width``, from a cold cache."""
    with monkeypatch.context() as patch:
        patch.setattr(kernels, "FFT_MIN_WIDTH", min_width)
        clear_analysis_cache()
        grid = BatchedMarkovSpatialAnalysis(
            scenario
        ).detection_probability_grid(**axes)
    clear_analysis_cache()
    return grid


def _pmf_stack(rng, rows, width):
    raw = rng.random((rows, width))
    return raw / raw.sum(axis=1, keepdims=True)


class TestRegistry:
    """There is no kernel registry: the dispatch policy is not selectable."""

    def test_unknown_backend_rejected_at_convolve(self):
        a = np.ones((1, 3))
        with pytest.raises(TypeError):
            batch_convolve(a, a, backend="fft")


class TestReferenceKernel:
    def test_matches_numpy_convolve_per_row(self, rng):
        a = rng.random((4, 9))
        b = rng.random((4, 5))
        out = _convolve_reference(a, b)
        for row in range(4):
            np.testing.assert_allclose(
                out[row], np.convolve(a[row], b[row]), atol=1e-15
            )

    def test_batch_invariance_bitwise(self, rng):
        a = _pmf_stack(rng, 6, 31)
        b = _pmf_stack(rng, 6, 17)
        full = _convolve_reference(a, b)
        for row in range(6):
            single = _convolve_reference(a[row : row + 1], b[row : row + 1])
            assert (single[0] == full[row]).all()

    def test_operand_order_symmetric(self, rng):
        a = rng.random((3, 20))
        b = rng.random((3, 7))
        assert (batch_convolve(a, b) == batch_convolve(b, a)).all()

    def test_shape_validation(self):
        with pytest.raises(AnalysisError, match="two \\(B, n\\) stacks"):
            batch_convolve(np.ones(3), np.ones((1, 3)))
        with pytest.raises(AnalysisError, match="two \\(B, n\\) stacks"):
            batch_convolve(np.ones((2, 3)), np.ones((3, 3)))


class TestFFTConformance:
    """FFT-vs-shift-and-add agreement on adversarial stacks."""

    def test_tiny_supports(self):
        # Length-1 and length-2 operands: degenerate FFT grids.
        cases = [
            (np.array([[0.25], [1.0], [0.0]]), np.array([[4.0], [0.5], [3.0]])),
            (
                np.array([[0.5, 0.5], [0.9, 0.1]]),
                np.array([[1.0], [0.25]]),
            ),
            (
                np.array([[0.3, 0.7], [0.6, 0.4]]),
                np.array([[0.2, 0.8], [0.5, 0.5]]),
            ),
        ]
        for a, b in cases:
            ref = _convolve_reference(a, b)
            fft = _convolve_fft(a, b)
            assert np.abs(fft - ref).max() <= 1e-12

    def test_near_zero_mass_rows(self, rng):
        a = _pmf_stack(rng, 3, 80)
        b = _pmf_stack(rng, 3, 70)
        a[0] *= 1e-300  # sub-normal-adjacent mass
        a[1] = 0.0  # no mass at all
        ref = _convolve_reference(a, b)
        fft = _convolve_fft(a, b)
        assert np.abs(fft - ref).max() <= 1e-12
        assert (fft[1] == 0.0).all()

    def test_mixed_magnitude_pmfs(self, rng):
        # Rows spanning ~15 decades but still summing to <= 1: the shape
        # the truncated geometric tails actually produce.
        width = 96
        decades = np.logspace(0, -15, width)
        a = np.stack([decades, decades[::-1], _pmf_stack(rng, 1, width)[0]])
        a = a / a.sum(axis=1, keepdims=True)
        b = _pmf_stack(rng, 3, width)
        ref = _convolve_reference(a, b)
        fft = _convolve_fft(a, b)
        assert np.abs(fft - ref).max() <= 1e-12

    def test_fft_clamps_roundoff_negatives(self, rng):
        a = _pmf_stack(rng, 4, 128)
        b = _pmf_stack(rng, 4, 128)
        out = _convolve_fft(a, b)
        assert (out >= 0.0).all()

    def test_fft_batch_invariance(self, rng):
        a = _pmf_stack(rng, 5, 90)
        b = _pmf_stack(rng, 5, 90)
        full = _convolve_fft(a, b)
        for row in range(5):
            single = _convolve_fft(a[row : row + 1], b[row : row + 1])
            assert (single[0] == full[row]).all()

    def test_power_auto_vs_reference(self, rng, monkeypatch):
        base = _pmf_stack(rng, 3, 40)
        auto = batch_convolve_power(base, 7)
        monkeypatch.setattr(kernels, "FFT_MIN_WIDTH", sys.maxsize)
        ref = batch_convolve_power(base, 7)
        assert np.abs(auto - ref).max() <= 1e-12


class TestDispatch:
    def test_auto_small_support_is_bitwise_reference(self, rng):
        a = _pmf_stack(rng, 4, 200)
        b = _pmf_stack(rng, 4, FFT_MIN_WIDTH - 1)
        with obs.instrument() as ob:
            auto = batch_convolve(a, b)
            counters = ob.manifest()["counters"]
        assert (auto == _convolve_reference(a, b)).all()
        assert "kernel.fft_dispatch" not in counters

    def test_auto_large_support_dispatches_fft(self, rng):
        a = _pmf_stack(rng, 4, FFT_MIN_WIDTH)
        b = _pmf_stack(rng, 4, FFT_MIN_WIDTH)
        with obs.instrument() as ob:
            auto = batch_convolve(a, b)
            counters = ob.manifest()["counters"]
        assert counters["kernel.fft_dispatch"] == 1
        assert (auto == _convolve_fft(a, b)).all()

    def test_dispatch_keys_on_shorter_operand(self, rng):
        # One wide operand is not enough: the crossover depends on the
        # shorter support, whichever argument slot it arrives in.
        wide = _pmf_stack(rng, 2, 500)
        narrow = _pmf_stack(rng, 2, 8)
        with obs.instrument() as ob:
            batch_convolve(narrow, wide)
            counters = ob.manifest()["counters"]
        assert "kernel.fft_dispatch" not in counters

    def test_guard_falls_back_on_large_norms(self):
        # ||a||_1 * ||b||_1 ~ 1e22 pushes the a-priori bound far past the
        # guard: the call must take the exact loop and count the fallback.
        a = np.full((2, 128), 1e9)
        b = np.full((2, 128), 1e9)
        assert fft_roundoff_bound(a, b) > FFT_GUARD_ATOL
        with obs.instrument() as ob:
            out = batch_convolve(a, b)
            counters = ob.manifest()["counters"]
        assert counters["kernel.fallbacks"] == 1
        assert "kernel.fft_dispatch" not in counters
        assert (out == _convolve_reference(a, b)).all()

    def test_guard_accepts_pmf_rows(self, rng):
        a = _pmf_stack(rng, 3, 128)
        b = _pmf_stack(rng, 3, 128)
        assert fft_roundoff_bound(a, b) <= FFT_GUARD_ATOL

    def test_guard_rejects_nonfinite(self):
        a = np.full((1, 128), np.inf)
        b = np.ones((1, 128))
        with obs.instrument() as ob:
            batch_convolve(a, b)
            counters = ob.manifest()["counters"]
        assert counters["kernel.fallbacks"] == 1


class TestEngineBackends:
    def test_engine_rejects_unknown_backend(self, small):
        # No kernel option reaches the engine either.
        with pytest.raises(TypeError):
            BatchedMarkovSpatialAnalysis(small, backend="fft")

    def test_engine_backend_property(self, small):
        assert not hasattr(BatchedMarkovSpatialAnalysis(small), "backend")

    def test_auto_within_tolerance_of_reference(
        self, small, monkeypatch, fresh_cache
    ):
        axes = dict(num_sensors=[20, 40, 80], thresholds=[1, 3, 6])
        ref = _engine_grid(small, sys.maxsize, monkeypatch, axes)
        fft = _engine_grid(small, 0, monkeypatch, axes)
        auto = BatchedMarkovSpatialAnalysis(small).detection_probability_grid(
            **axes
        )
        assert np.abs(fft - ref).max() <= 1e-12
        assert np.abs(auto - ref).max() <= 1e-12


#: Golden grids, reproduced bitwise by the pure shift-and-add loop.
#: Regenerate only on a deliberate numerical contract change:
#:   detection_probability_grid under the parameters named in each case.
GOLDEN_SMALL = [
    ["0x1.250aaae998776p-2", "0x1.789352b7b0611p-3", "0x1.8b7ed1d7d6c98p-6"],
    ["0x1.f635aa8685f53p-2", "0x1.5ec15f17d3905p-2", "0x1.5b2d945aff1cap-4"],
    ["0x1.7b0241b88211ap-1", "0x1.2bdeab2426753p-1", "0x1.08d24a2c585fcp-2"],
]
GOLDEN_ONR = [
    ["0x1.b4fd50acd4b3fp-2"],
    ["0x1.f50cd3b3cacb8p-1"],
]


class TestReferenceGoldens:
    """The pure shift-and-add loop stays bitwise equal to the golden grids;
    the shipped policy stays within 1e-12 of them."""

    def _hex_grid(self, grid):
        return [[float(v).hex() for v in row] for row in grid]

    def test_small_grid_bitwise(self, monkeypatch, fresh_cache):
        monkeypatch.setattr(kernels, "FFT_MIN_WIDTH", sys.maxsize)
        grid = BatchedMarkovSpatialAnalysis(
            small_scenario()
        ).detection_probability_grid(
            num_sensors=[20, 40, 80], thresholds=[1, 3, 6]
        )
        assert self._hex_grid(grid) == GOLDEN_SMALL

    @pytest.mark.slow
    def test_onr_grid_bitwise(self, monkeypatch, fresh_cache):
        monkeypatch.setattr(kernels, "FFT_MIN_WIDTH", sys.maxsize)
        grid = BatchedMarkovSpatialAnalysis(
            onr_scenario(num_sensors=240, speed=10.0),
            body_truncation=4,
            substeps=2,
        ).detection_probability_grid(num_sensors=[60, 240], thresholds=[5])
        assert self._hex_grid(grid) == GOLDEN_ONR

    @pytest.mark.slow
    def test_onr_grid_shipped_policy(self, fresh_cache):
        # The ONR case is wide enough that the shipped policy really takes
        # the FFT; it must still land within 1e-12 of the golden grid.
        with obs.instrument() as ob:
            grid = BatchedMarkovSpatialAnalysis(
                onr_scenario(num_sensors=240, speed=10.0),
                body_truncation=4,
                substeps=2,
            ).detection_probability_grid(num_sensors=[60, 240], thresholds=[5])
            counters = ob.manifest()["counters"]
        assert counters["kernel.fft_dispatch"] > 0
        golden = np.array(
            [[float.fromhex(v) for v in row] for row in GOLDEN_ONR]
        )
        assert np.abs(grid - golden).max() <= 1e-12
