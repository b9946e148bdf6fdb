"""Burst-mode frequency-domain timing recovery.

The feedback loop has four parts, mirroring the hardware flow:

* a Godard-style error detector that correlates the spectral excess band with
  its alias one symbol rate away.  On the 144-bin grid at 1.125 samples per
  symbol the alias partner of bin ``k`` is ``k + 16``, so both bins carry the
  *same* transmitted frequency content and the imaginary part of
  ``X(k) conj(X(k+16))`` is an odd function of the sampling-phase error.
  The beats are real, so ``conj(X(k+16)) = X(128 - k)``, and the detector
  reads both bins of each pair from the 73-bin half spectrum;
* a proportional-integral loop filter and a numerically controlled
  oscillator, the accumulator ``tau <- tau + W``; both are the one method
  :meth:`FdtrLoop.update`.  The paper's Mod-1 form is not modelled: its
  fractional interval ``eta/W`` is unbounded for small control words, and
  closed-loop it decoded at a BER of about 0.49 even on a noiseless channel;
* a frequency-domain interpolator multiplying bin ``k`` of the half
  spectrum by ``exp(-2j pi f_k tau)``, ``f_k = k/144`` cycles per sample.
  That factor is ``w^k`` with ``w = exp(-2j pi tau / 144)``, so a beat costs
  one exponential and the 72 products of its running power, not one
  exponential per bin.

The loop filter consumes a normalized error (the raw detector sum divided by
the summed pairing magnitude), so the gains are dimensionless and a detector
value of ``-sin(2 pi residual_ui)`` drives the accumulator in samples.
:class:`FdtrLoop` holds the whole per-burst state: the detector band's
roll-off, tau, the error integral and the per-beat tau trace.

The detector reads the corrected spectrum, but correcting by ``tau`` only
rotates each pair product ``P = X(k) X(128 - k)`` by
``exp(-2j pi (f_k + f_(128-k)) tau)`` and leaves ``|P|`` alone.  The
frequency sum is 128/144 = 8/9 cycles per sample for every band bin, so the
whole sum ``S`` turns by one phase.  The one bin that breaks this in the
full spectrum, bin 56, pairs with the Nyquist bin 72, which the receive RRC
sets to exactly 0 at every accepted roll-off; its product is 0, and
:func:`godard_band` leaves it out.  So :meth:`FdtrLoop.process_beat`
takes ``S`` and ``sum |P|`` of a whole stack of beats at once, runs the
recursion on one complex scalar per beat, and corrects the stack in one call.

On random payload the detector has an irreducible per-beat self-noise of
roughly 8e-2 normalized: the 144-sample analysis window truncates pulse tails
at its edges, so the paired bins see slightly different data mixtures.  Pure
preamble-A beats are block-periodic and show no such noise.  Loop gains trade
acquisition speed against this jitter; they are the fixed constants
:data:`LOOP_KP` and :data:`LOOP_KI`.
"""

from dataclasses import dataclass, field
from cmath import exp as cexp
from math import ceil, floor, pi

import numpy as np

from .txchain import BINS_OUT, DEFAULT_ROLLOFF, N_IN, N_OUT, SPS

ALIAS_STRIDE = 16  # N - N/sps = 144 - 128
# PI loop-filter gains on the normalized detector error (dimensionless)
LOOP_KP = 1e-2
LOOP_KI = 1e-4
# the phase step per sample of tau between neighbouring bins, 1/144 cycles apart
_BIN_STEP = -2j * pi / N_OUT
# f_k + f_(128-k) = 128/144 cycles per sample for every band bin: the phase
# step per sample of tau that correcting a spectrum applies to a pair product
_PAIR_STEP = -2j * pi * (N_IN / N_OUT)


def godard_band(alpha: float = DEFAULT_ROLLOFF) -> np.ndarray:
    """Integer bin range [ceil((1-a)K), floor((1+a)K)-1] with K = N/(2 sps).

    Bin 56, whose partner is the Nyquist bin 72, is left out: the receive RRC
    nulls bin 72, so its pair product is 0.  It falls in the range only at
    roll-off 0.125, where the band is 57..71.
    """
    k_center = N_OUT / (2 * SPS)
    lo = max(ceil((1 - alpha) * k_center), N_OUT // 2 - ALIAS_STRIDE + 1)
    hi = floor((1 + alpha) * k_center) - 1
    return np.arange(lo, hi + 1)


def pair_products(X: np.ndarray, k) -> np.ndarray:
    """``P = X(k) conj(X(k+16)) = X(k) X(128-k)`` at the bins ``k`` of 73-bin half spectra.

    The Godard detector sums ``P`` over the excess band; at the Preamble-A
    tone bin 64, whose partner is the bin itself, ``P = X(64)^2`` is the
    tone-pair product that seeds tau0 (:func:`burstrx.rxfront.estimate_initial_spo`).
    """
    X = np.asarray(X)
    return X[..., k] * X[..., N_IN - k]


def godard_error(X: np.ndarray, alpha: float = DEFAULT_ROLLOFF) -> tuple[np.ndarray, np.ndarray]:
    """Detector sums over the excess band of 73-bin half spectra, per row.

    With ``P`` the :func:`pair_products` over the band, returns
    ``(S, sum |P|)`` with ``S = sum P``.  The raw timing error of ``X`` is
    ``Im S``; that of ``X`` corrected by ``tau`` is
    ``Im S exp(-2j pi (8/9) tau)``.  ``sum |P|`` normalizes it and does not
    depend on ``tau``.
    """
    pair = pair_products(X, godard_band(alpha))
    return pair.sum(axis=-1), np.sum(np.abs(pair), axis=-1)


def fd_interpolate(X: np.ndarray, tau_samples) -> np.ndarray:
    """Fractional-delay rotation: bin k times exp(-2j pi f_k tau).

    ``X`` holds 73-bin half spectra on its last axis; ``f_k`` is k/144
    cycles per sample.  ``tau_samples`` broadcasts against ``X``, so a
    ``(n, 1)`` column corrects each row of an ``(n, 73)`` stack by its own
    tau.

    The factor of bin ``k`` is ``w^k`` with ``w = exp(-2j pi tau / 144)``: one
    exponential per row, then a running product along the bins.  Each product
    rounds once, so the factors are within 5e-15 of the exact ones for
    ``|tau| <= 3`` samples and 1e-13 for ``|tau| <= 200``, where exponentials
    evaluated per bin are within 2e-15 and 1.3e-13.  Every row goes through
    the same operations whatever the shape of the stack, so a one-row call
    equals that row of a stacked call bit for bit.
    """
    X = np.asarray(X)
    w = np.exp(_BIN_STEP * np.asarray(tau_samples, dtype=float))
    powers = np.empty(np.broadcast_shapes(X.shape, w.shape), dtype=complex)
    powers[...] = w
    powers[..., 0] = 1.0
    np.multiply.accumulate(powers, axis=-1, out=powers)
    return np.multiply(X, powers, out=powers)


@dataclass
class FdtrLoop:
    """Per-burst feedback state: strictly sequential, one owner."""

    alpha: float = DEFAULT_ROLLOFF       # RRC roll-off: sets the detector band
    tau: float = 0.0                     # samples at 1.125 sps
    integral: float = 0.0                # running sum of normalized errors
    trace: list = field(default_factory=list)   # tau used on each beat

    def update(self, e: float) -> None:
        """PI step: tau moves by LOOP_KP*e + LOOP_KI*(error sum including e)."""
        self.integral += e
        self.tau += LOOP_KP * e + LOOP_KI * self.integral

    def process_beat(self, X: np.ndarray) -> np.ndarray:
        """Correct a stack of beat spectra in order, updating the loop per beat.

        ``X`` has shape ``(..., 73)``, one beat per row in time order.  Each
        row is corrected with the tau of its own beat; the error it exhibits
        only moves tau for later rows (strict causality).  The detector sum of
        every row is taken once over the uncorrected stack, so the recursion
        rotates one complex scalar per beat, and the correction runs once at
        the end.
        """
        X = np.asarray(X)
        sums, mags = godard_error(X.reshape(-1, BINS_OUT), self.alpha)
        taus = []
        for s, mag in zip(sums.tolist(), mags.tolist()):
            taus.append(self.tau)
            err = (s * cexp(_PAIR_STEP * self.tau)).imag
            self.update(err / mag if mag > 0 else 0.0)
        self.trace.extend(taus)
        return fd_interpolate(X, np.reshape(taus, X.shape[:-1] + (1,)))
