"""Unit tests for repro.core.kernels — the backend registry and FFT path.

Covers the backend seam's contracts:

* registry validation and process-wide default get/set;
* FFT-vs-reference conformance on adversarial stacks (tiny supports,
  near-zero mass rows, mixed-magnitude pmfs);
* the a-priori round-off guard and its ``kernel.fallbacks`` /
  ``kernel.fft_dispatch`` counters;
* the PR 5 golden grids reproduced **bitwise** under
  ``backend='reference'``.
"""

import numpy as np
import pytest

from repro import obs
from repro.cache import clear_analysis_cache
from repro.core.batched import BatchedMarkovSpatialAnalysis
from repro.core.kernels import (
    FFT_GUARD_ATOL,
    FFT_MIN_WIDTH,
    KERNEL_BACKENDS,
    batch_convolve,
    batch_convolve_power,
    fft_roundoff_bound,
    get_default_backend,
    normalize_backend,
    resolve_backend,
    set_default_backend,
)
from repro.errors import AnalysisError
from repro.experiments.presets import onr_scenario, small_scenario


@pytest.fixture(autouse=True)
def _reset_backend_state():
    """Restore the process default backend per test."""
    previous = get_default_backend()
    yield
    set_default_backend(previous)


def _pmf_stack(rng, rows, width):
    raw = rng.random((rows, width))
    return raw / raw.sum(axis=1, keepdims=True)


class TestRegistry:
    def test_registry_names(self):
        assert KERNEL_BACKENDS == ("auto", "reference", "fft")

    def test_normalize_accepts_known_and_none(self):
        for name in KERNEL_BACKENDS:
            assert normalize_backend(name) == name
        assert normalize_backend(None) is None

    def test_normalize_rejects_unknown(self):
        with pytest.raises(AnalysisError, match="unknown kernel backend"):
            normalize_backend("blas")

    def test_default_backend_roundtrip(self):
        assert get_default_backend() == "auto"
        set_default_backend("reference")
        assert get_default_backend() == "reference"
        # None resolves to the new process default.
        assert resolve_backend(None) == "reference"

    def test_set_default_rejects_unknown(self):
        with pytest.raises(AnalysisError, match="unknown kernel backend"):
            set_default_backend("vulkan")
        with pytest.raises(AnalysisError, match="unknown kernel backend"):
            set_default_backend(None)

    def test_available_backends_always_has_core_trio(self):
        for name in ("auto", "reference", "fft"):
            assert resolve_backend(name) == name

    def test_unknown_backend_rejected_at_convolve(self):
        a = np.ones((1, 3))
        with pytest.raises(AnalysisError, match="unknown kernel backend"):
            batch_convolve(a, a, backend="blas")


class TestReferenceKernel:
    def test_matches_numpy_convolve_per_row(self, rng):
        a = rng.random((4, 9))
        b = rng.random((4, 5))
        out = batch_convolve(a, b, backend="reference")
        for row in range(4):
            np.testing.assert_allclose(
                out[row], np.convolve(a[row], b[row]), atol=1e-15
            )

    def test_batch_invariance_bitwise(self, rng):
        a = _pmf_stack(rng, 6, 31)
        b = _pmf_stack(rng, 6, 17)
        full = batch_convolve(a, b, backend="reference")
        for row in range(6):
            single = batch_convolve(
                a[row : row + 1], b[row : row + 1], backend="reference"
            )
            assert (single[0] == full[row]).all()

    def test_operand_order_symmetric(self, rng):
        a = rng.random((3, 20))
        b = rng.random((3, 7))
        assert (
            batch_convolve(a, b, backend="reference")
            == batch_convolve(b, a, backend="reference")
        ).all()

    def test_shape_validation(self):
        with pytest.raises(AnalysisError, match="two \\(B, n\\) stacks"):
            batch_convolve(np.ones(3), np.ones((1, 3)))
        with pytest.raises(AnalysisError, match="two \\(B, n\\) stacks"):
            batch_convolve(np.ones((2, 3)), np.ones((3, 3)))


class TestFFTConformance:
    """FFT-vs-reference agreement on adversarial stacks (satellite c)."""

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
            ref = batch_convolve(a, b, backend="reference")
            fft = batch_convolve(a, b, backend="fft")
            assert np.abs(fft - ref).max() <= 1e-12

    def test_near_zero_mass_rows(self, rng):
        a = _pmf_stack(rng, 3, 80)
        b = _pmf_stack(rng, 3, 70)
        a[0] *= 1e-300  # sub-normal-adjacent mass
        a[1] = 0.0  # no mass at all
        ref = batch_convolve(a, b, backend="reference")
        fft = batch_convolve(a, b, backend="fft")
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
        ref = batch_convolve(a, b, backend="reference")
        fft = batch_convolve(a, b, backend="fft")
        assert np.abs(fft - ref).max() <= 1e-12

    def test_fft_clamps_roundoff_negatives(self, rng):
        a = _pmf_stack(rng, 4, 128)
        b = _pmf_stack(rng, 4, 128)
        out = batch_convolve(a, b, backend="fft")
        assert (out >= 0.0).all()

    def test_fft_batch_invariance(self, rng):
        a = _pmf_stack(rng, 5, 90)
        b = _pmf_stack(rng, 5, 90)
        full = batch_convolve(a, b, backend="fft")
        for row in range(5):
            single = batch_convolve(
                a[row : row + 1], b[row : row + 1], backend="fft"
            )
            assert (single[0] == full[row]).all()

    def test_power_auto_vs_reference(self, rng):
        base = _pmf_stack(rng, 3, 40)
        ref = batch_convolve_power(base, 7, backend="reference")
        auto = batch_convolve_power(base, 7, backend="auto")
        assert np.abs(auto - ref).max() <= 1e-12


class TestDispatch:
    def test_auto_small_support_is_bitwise_reference(self, rng):
        a = _pmf_stack(rng, 4, 200)
        b = _pmf_stack(rng, 4, FFT_MIN_WIDTH - 1)
        with obs.instrument() as ob:
            auto = batch_convolve(a, b, backend="auto")
            counters = ob.manifest()["counters"]
        assert (auto == batch_convolve(a, b, backend="reference")).all()
        assert "kernel.fft_dispatch" not in counters

    def test_auto_large_support_dispatches_fft(self, rng):
        a = _pmf_stack(rng, 4, FFT_MIN_WIDTH)
        b = _pmf_stack(rng, 4, FFT_MIN_WIDTH)
        with obs.instrument() as ob:
            auto = batch_convolve(a, b, backend="auto")
            counters = ob.manifest()["counters"]
        assert counters["kernel.fft_dispatch"] == 1
        assert (auto == batch_convolve(a, b, backend="fft")).all()

    def test_dispatch_keys_on_shorter_operand(self, rng):
        # One wide operand is not enough: the crossover depends on the
        # shorter support, whichever argument slot it arrives in.
        wide = _pmf_stack(rng, 2, 500)
        narrow = _pmf_stack(rng, 2, 8)
        with obs.instrument() as ob:
            batch_convolve(narrow, wide, backend="auto")
            counters = ob.manifest()["counters"]
        assert "kernel.fft_dispatch" not in counters

    def test_guard_falls_back_on_large_norms(self):
        # ||a||_1 * ||b||_1 ~ 1e22 pushes the a-priori bound far past the
        # guard: the call must take the exact loop and count the fallback.
        a = np.full((2, 128), 1e9)
        b = np.full((2, 128), 1e9)
        assert fft_roundoff_bound(a, b) > FFT_GUARD_ATOL
        with obs.instrument() as ob:
            out = batch_convolve(a, b, backend="fft")
            counters = ob.manifest()["counters"]
        assert counters["kernel.fallbacks"] == 1
        assert "kernel.fft_dispatch" not in counters
        assert (out == batch_convolve(a, b, backend="reference")).all()

    def test_guard_accepts_pmf_rows(self, rng):
        a = _pmf_stack(rng, 3, 128)
        b = _pmf_stack(rng, 3, 128)
        assert fft_roundoff_bound(a, b) <= FFT_GUARD_ATOL

    def test_guard_rejects_nonfinite(self):
        a = np.full((1, 128), np.inf)
        b = np.ones((1, 128))
        with obs.instrument() as ob:
            batch_convolve(a, b, backend="fft")
            counters = ob.manifest()["counters"]
        assert counters["kernel.fallbacks"] == 1


class TestEngineBackends:
    def test_engine_rejects_unknown_backend(self, small):
        with pytest.raises(AnalysisError, match="unknown kernel backend"):
            BatchedMarkovSpatialAnalysis(small, backend="blas")

    def test_engine_backend_property(self, small):
        assert BatchedMarkovSpatialAnalysis(small).backend is None
        engine = BatchedMarkovSpatialAnalysis(small, backend="fft")
        assert engine.backend == "fft"

    def test_auto_within_tolerance_of_reference(self, small):
        clear_analysis_cache()
        axes = dict(num_sensors=[20, 40, 80], thresholds=[1, 3, 6])
        ref = BatchedMarkovSpatialAnalysis(
            small, backend="reference"
        ).detection_probability_grid(**axes)
        fft = BatchedMarkovSpatialAnalysis(
            small, backend="fft"
        ).detection_probability_grid(**axes)
        auto = BatchedMarkovSpatialAnalysis(
            small, backend="auto"
        ).detection_probability_grid(**axes)
        assert np.abs(fft - ref).max() <= 1e-12
        assert np.abs(auto - ref).max() <= 1e-12

    def test_default_backend_governs_plain_engines(self, small):
        clear_analysis_cache()
        set_default_backend("reference")
        inherited = BatchedMarkovSpatialAnalysis(
            small
        ).detection_probability_grid(num_sensors=[30], thresholds=[2])
        explicit = BatchedMarkovSpatialAnalysis(
            small, backend="reference"
        ).detection_probability_grid(num_sensors=[30], thresholds=[2])
        assert (inherited == explicit).all()


#: PR 5 golden grids, reproduced bitwise by ``backend='reference'``.
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
    """``backend='reference'`` must stay bitwise equal to the PR 5 output."""

    def _hex_grid(self, grid):
        return [[float(v).hex() for v in row] for row in grid]

    def test_small_grid_bitwise(self):
        clear_analysis_cache()
        grid = BatchedMarkovSpatialAnalysis(
            small_scenario(), backend="reference"
        ).detection_probability_grid(
            num_sensors=[20, 40, 80], thresholds=[1, 3, 6]
        )
        assert self._hex_grid(grid) == GOLDEN_SMALL

    @pytest.mark.slow
    def test_onr_grid_bitwise(self):
        clear_analysis_cache()
        grid = BatchedMarkovSpatialAnalysis(
            onr_scenario(num_sensors=240, speed=10.0),
            body_truncation=4,
            substeps=2,
            backend="reference",
        ).detection_probability_grid(num_sensors=[60, 240], thresholds=[5])
        assert self._hex_grid(grid) == GOLDEN_ONR
