"""Convolution kernels: the raw-speed tier under the batched engine.

:mod:`repro.core.batched` evaluates Eq. 12 as a chain of row-wise pmf
convolutions.  This module owns those convolutions and the one policy
that decides *how* each runs, from the operands alone:

* below :data:`FFT_MIN_WIDTH` (the shorter operand's support) the
  fixed-reduction-order shift-and-add loop: every output element
  accumulates its terms in ascending-shift order, independent of the
  batch shape, so it is **bitwise batch-invariant** — and faster than
  the FFT at these widths;
* at or above it, a real-FFT convolution (``rfft``/``irfft`` on a
  :func:`scipy.fft.next_fast_len` grid): ``O(B L log L)`` instead of
  ``O(B n_short L)``.  Still per-row, so still batch invariant, but it
  *re-associates* the sums, so agreement with the shift-and-add loop is
  to rounding, not bitwise.  An a-priori round-off bound
  (:func:`fft_roundoff_bound`) guards every such call: when the bound
  exceeds :data:`FFT_GUARD_ATOL` the call falls back to the loop
  (counted in ``kernel.fallbacks``).

The two kernels themselves (:func:`_convolve_reference`,
:func:`_convolve_fft`) are the test oracles; tests reach the pure loop
or the guarded FFT everywhere by patching :data:`FFT_MIN_WIDTH` to
``sys.maxsize`` or ``0``.  Dispatch decisions are counted into the
active instrumentation: ``kernel.fft_dispatch`` (calls routed to the
FFT) and ``kernel.fallbacks`` (guard-triggered fallbacks) — see
``docs/observability.md``.
"""

from __future__ import annotations

import math

import numpy as np

from repro import obs
from repro.errors import AnalysisError

__all__ = [
    "FFT_GUARD_ATOL",
    "FFT_MIN_WIDTH",
    "batch_convolve",
    "batch_convolve_power",
    "fft_roundoff_bound",
]

#: A convolution goes to the FFT only when *both* operands' supports
#: reach this width.  The shift-and-add loop costs
#: ``O(B * n_short * L)`` and the FFT ``O(B * L log L)``, so the shorter
#: operand's width is the quantity the crossover depends on; below it the
#: reference loop is both faster and bitwise-stable.
FFT_MIN_WIDTH = 64

#: Maximum a-priori round-off bound (absolute, per element) under which
#: the FFT result is accepted.  :func:`fft_roundoff_bound` majorises the
#: true max-abs deviation from the shift-and-add reference; anything that
#: could exceed this falls back to the reference loop, which keeps every
#: FFT-backed result within an order of magnitude below the engine's
#: 1e-12 conformance contract.
FFT_GUARD_ATOL = 1e-13


def _validated_stacks(a, b):
    """Shared operand validation; returns ``(long, short)`` float stacks."""
    a = np.asarray(a, dtype=float)
    b = np.asarray(b, dtype=float)
    if a.ndim != 2 or b.ndim != 2 or a.shape[0] != b.shape[0]:
        raise AnalysisError(
            f"batch_convolve needs two (B, n) stacks, got {a.shape} and {b.shape}"
        )
    if b.shape[1] > a.shape[1]:
        a, b = b, a
    return a, b


def _convolve_reference(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Fixed-order shift-and-add: the bitwise conformance oracle.

    ``a`` is the longer operand.  Each output element accumulates its
    ``a[:, j - shift] * b[:, shift]`` terms in ascending ``shift`` order
    regardless of the batch size — the batch-invariance contract.
    """
    rows, width = a.shape
    out = np.zeros((rows, width + b.shape[1] - 1))
    for shift in range(b.shape[1]):
        out[:, shift : shift + width] += a * b[:, shift : shift + 1]
    return out


def fft_roundoff_bound(a: np.ndarray, b: np.ndarray) -> float:
    """A-priori bound on the FFT path's max-abs deviation from reference.

    A (generous) Higham-style forward-error majorant for length-``n``
    real-FFT convolution: ``eps * (4 log2 n + 16) * max_rows(||a||_1 *
    ||b||_1)``.  For the engine's pmf rows (``||.||_1 <= 1``) this sits
    around 1e-14 — well under :data:`FFT_GUARD_ATOL` — while
    mixed-magnitude stacks whose norms could amplify round-off past the
    guard are sent back to the exact loop.
    """
    length = a.shape[1] + b.shape[1] - 1
    norm = float(
        (np.abs(a).sum(axis=1) * np.abs(b).sum(axis=1)).max(initial=0.0)
    )
    return float(
        np.finfo(float).eps * (4.0 * math.log2(max(length, 2)) + 16.0) * norm
    )


def _convolve_fft(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Row-wise convolution via real FFTs on a fast composite length."""
    from scipy.fft import irfft, next_fast_len, rfft

    length = a.shape[1] + b.shape[1] - 1
    n = next_fast_len(length, real=True)
    out = irfft(rfft(a, n, axis=1) * rfft(b, n, axis=1), n, axis=1)[:, :length]
    if (a >= 0.0).all() and (b >= 0.0).all():
        # Round-off can leave ~1e-17-scale negatives where the true mass
        # is zero; pmf consumers (survival sums, normalisation) expect
        # non-negative rows, and the reference never produces negatives.
        np.maximum(out, 0.0, out=out)
    return out


def batch_convolve(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Row-wise convolution of two pmf stacks, size-dispatched.

    Both inputs are ``(B, *)`` stacks; the result is ``(B, a_len + b_len
    - 1)``.  Shift-and-add when the shorter support is below
    :data:`FFT_MIN_WIDTH`, else the guarded FFT (see the module
    docstring).  Both kernels compute each row independently, so the
    result is batch-invariant; the FFT path agrees with the loop to the
    :func:`fft_roundoff_bound` guard.

    Raises:
        AnalysisError: on malformed stacks.
    """
    a, b = _validated_stacks(a, b)
    if b.shape[1] < FFT_MIN_WIDTH:
        return _convolve_reference(a, b)
    ob = obs.current()
    bound = fft_roundoff_bound(a, b)
    if not math.isfinite(bound) or bound > FFT_GUARD_ATOL:
        if ob.enabled:
            ob.incr("kernel.fallbacks")
        return _convolve_reference(a, b)
    if ob.enabled:
        ob.incr("kernel.fft_dispatch")
    return _convolve_fft(a, b)


def batch_convolve_power(base: np.ndarray, power: int) -> np.ndarray:
    """Row-wise ``power``-fold self-convolution by binary exponentiation.

    The batched counterpart of
    :func:`repro.core.report_dist.convolution_power`: ``O(log power)``
    stacked convolutions instead of ``power`` sequential ones, each
    dispatched through :func:`batch_convolve`.
    ``power == 0`` returns the unit pmf ``[1.0]`` in every row.
    """
    if power < 0:
        raise AnalysisError(f"power must be non-negative, got {power}")
    base = np.asarray(base, dtype=float)
    if base.ndim != 2 or base.shape[1] == 0:
        raise AnalysisError(
            f"base must be a non-empty (B, n) stack, got shape {base.shape}"
        )
    result = np.ones((base.shape[0], 1))
    while power:
        if power & 1:
            result = batch_convolve(result, base)
        power >>= 1
        if power:
            base = batch_convolve(base, base)
    return result
