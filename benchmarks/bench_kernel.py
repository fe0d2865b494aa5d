"""PERF-KERNEL: FFT convolution kernel vs the shift-and-add reference.

Times the two convolution kernels in :mod:`repro.core.kernels` on
large-support pmf stacks — the regime the shipped dispatch routes to the
FFT (both supports ``>= FFT_MIN_WIDTH``):

* **reference** — the fixed-reduction-order shift-and-add loop
  (``O(B n_short L)``), the bitwise conformance oracle;
* **fft** — ``rfft``/``irfft`` on a fast composite length
  (``O(B L log L)``), guarded by the a-priori round-off bound.

The FFT must agree with shift-and-add to 1e-12, asserted here so the
committed record can never drift from a run that missed it.  The
speedup is recorded, not asserted: a slow FFT reads ``WORSE`` on the
end-to-end offline-sweep workload (CHANGES.md keeps the pair result).
The ``auto`` row times :func:`~repro.core.kernels.batch_convolve` itself
and documents that the dispatcher actually picks the fast path at these
widths (same arrays, guard accepted); the committed record is the
baseline of ``bench_regression.py``'s dispatch gate.

Environment knobs:

* ``REPRO_BENCH_KERNEL_ROWS`` — stack rows (default 64).
* ``REPRO_BENCH_KERNEL_WIDTH`` — support width (default 256).
"""

from __future__ import annotations

import os
import time

import numpy as np

from repro.core.kernels import (
    FFT_GUARD_ATOL,
    FFT_MIN_WIDTH,
    _convolve_fft,
    _convolve_reference,
    batch_convolve,
    fft_roundoff_bound,
)
from repro.experiments.records import ExperimentRecord

#: Parity bound between the kernels (the FFT reassociates the sums).
PARITY_ATOL = 1e-12

#: Timed repetitions per kernel (amortises timer granularity).
REPEATS = 20


def _pmf_stack(rng, rows, width):
    raw = rng.random((rows, width))
    return raw / raw.sum(axis=1, keepdims=True)


def _time_kernel(kernel, a, b):
    kernel(a, b)  # warm-up
    start = time.perf_counter()
    for _ in range(REPEATS):
        out = kernel(a, b)
    return (time.perf_counter() - start) / REPEATS, out


def test_fft_kernel_speedup(emit_record):
    rows = int(os.environ.get("REPRO_BENCH_KERNEL_ROWS", "64"))
    width = int(os.environ.get("REPRO_BENCH_KERNEL_WIDTH", "256"))
    rng = np.random.default_rng(20080617)
    a = _pmf_stack(rng, rows, width)
    b = _pmf_stack(rng, rows, width)

    # The guard must accept pmf-normalised rows, or the dispatcher would
    # never actually take the path this benchmark prices.
    assert fft_roundoff_bound(a, b) <= FFT_GUARD_ATOL

    reference_seconds, reference_out = _time_kernel(_convolve_reference, a, b)
    fft_seconds, fft_out = _time_kernel(_convolve_fft, a, b)
    auto_seconds, auto_out = _time_kernel(batch_convolve, a, b)

    max_deviation = float(np.abs(fft_out - reference_out).max())
    assert max_deviation <= PARITY_ATOL, (
        f"FFT kernel deviates from shift-and-add by {max_deviation:.3e}"
        f" (> {PARITY_ATOL})"
    )
    # At these widths the dispatcher must have taken the FFT.
    assert (auto_out == fft_out).all()

    speedup = reference_seconds / fft_seconds

    record = ExperimentRecord(
        experiment_id="PERF-KERNEL",
        title="FFT convolution kernel vs shift-and-add reference",
        parameters={
            "rows": rows,
            "width": width,
            "repeats": REPEATS,
            "fft_min_width": FFT_MIN_WIDTH,
            "fft_guard_atol": FFT_GUARD_ATOL,
            "roundoff_bound": fft_roundoff_bound(a, b),
            "cpu_count": os.cpu_count(),
        },
    )
    record.add_row(
        backend="reference",
        seconds=reference_seconds,
        speedup=1.0,
        max_abs_deviation=0.0,
    )
    record.add_row(
        backend="fft",
        seconds=fft_seconds,
        speedup=speedup,
        max_abs_deviation=max_deviation,
    )
    record.add_row(
        backend="auto",
        seconds=auto_seconds,
        speedup=reference_seconds / auto_seconds,
        max_abs_deviation=float(np.abs(auto_out - reference_out).max()),
    )
    emit_record(record)
