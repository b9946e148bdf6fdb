"""Burst-mode frequency-domain timing recovery: one feedforward line per burst.

* A Godard-style error detector correlates the spectral excess band with its
  alias one symbol rate away.  On the 144-bin grid at 1.125 samples per
  symbol the alias partner of bin ``k`` is ``k + 16``: both bins carry the
  same transmitted content, and ``Im X(k) conj(X(k+16))`` is an odd function
  of the sampling-phase error.  The beats are real, so
  ``conj(X(k+16)) = X(128 - k)`` and both bins come from the half spectrum.
* :func:`estimate_taus` reads every beat's tau from one line fitted to the
  detector sums of the whole stack.
* A frequency-domain interpolator multiplies bin ``k`` by
  ``exp(-2j pi f_k tau)``, ``f_k = k/144`` cycles per sample: that is
  ``w^k`` with ``w = exp(-2j pi tau / 144)``, one exponential per tau.
  The powers of ``w`` are built by repeated squaring, seven products over
  the bins, and one tau for a whole stack builds one row of them.

Correcting a beat by ``tau`` turns each pair product ``P = X(k) X(128 - k)``
by ``exp(-2j pi (f_k + f_(128-k)) tau)``, and ``f_k + f_(128-k)`` is 8/9
cycles per sample for every band bin.  So the beat's sum ``S_b = sum P``
turns by one phase, and the tau that zeroes its error on the stable side is
``angle(S_b) (9/8) / 2pi``, modulo one symbol, 9/8 samples (bin 56, which
breaks the 8/9, is left out, see :func:`godard_band`).  This is the
spectral-line estimate of Oerder & Meyr (IEEE Trans. Commun., 1988), which
:func:`burstrx.rxfront.estimate_initial_spo` applies to the tone.

On random payload one beat's sum carries a self-noise of roughly 8e-2 of
``sum |P|``: the 144-sample window truncates pulse tails, so paired bins see
slightly different data.  Hence the sum over :data:`W1` = 24 beats, the
unwrapped phase, and one least-squares line over the whole stack; a linear
drift passes all three unchanged.  The upstream is TDMA, and the only timing
the channel gives a burst is a fixed offset plus a linear clock drift
(:func:`burstrx.channel.run_channel`), so a burst's sampling offset is one
line and one estimate per burst holds it.  At 300 ppm the phase turns 0.7 UI
over one sum, which 32 beats could not hold; 16 beats slipped a cycle at
5 GHz / 12 dB.

The moving sum limits the drift it holds.  Drift turns ``S_b`` by
``2 pi (8/9) ppm 1e-6 108`` rad per beat, 0.24 rad at 400 ppm, so the
:data:`W1` sum adds turning phasors: it has its first null where 24 beats
turn ``2 pi``, at ~430 ppm, and the estimate fails from ~360 ppm, where the
sum has shrunk to about a fifth of its static size.  Such a burst still
reports ``ok``, with a BER of 0.3-0.5.

Paper fidelity: the paper's FDTR is a feedback loop, a PI filter driving a
numerically controlled oscillator (``godard_sum`` and ``nco_division`` in
:data:`burstrx.pipeline.STAGES`); this estimate is an extension.  It holds
300 ppm and roll-off 1/64, where the loop lost lock, and carries no state
from stage 1 to stage 2.  In hardware the line needs the detector sum of
every beat before it corrects the first, so the chain buffers a whole burst
of beat spectra: 1 364 beats on the default frame, against the 242-beat delay
that the DD-LMS error path already has.
"""

from dataclasses import dataclass
from math import ceil, floor, pi

import numpy as np

from .txchain import BINS_OUT, DEFAULT_ROLLOFF, N_IN, N_OUT, SPS

ALIAS_STRIDE = 16  # N - N/sps = 144 - 128
W1 = 24  # beats in the moving sum of the detector sums
# the phase step per sample of tau between neighbouring bins, 1/144 cycles apart
_BIN_STEP = -2j * pi / N_OUT
# a pair product turns by 2 pi (8/9) per sample of tau: radians to samples
_SAMPLES_PER_RADIAN = SPS / (2 * pi)


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


def godard_error(X: np.ndarray, alpha: float = DEFAULT_ROLLOFF) -> np.ndarray:
    """Detector sums ``S = sum P`` over the excess band of 73-bin half spectra, per row.

    ``P`` are the :func:`pair_products` over the band.  The timing error of
    ``X`` corrected by ``tau`` is ``Im S exp(-2j pi (8/9) tau)``.
    """
    return pair_products(X, godard_band(alpha)).sum(axis=-1)


def estimate_taus(S: np.ndarray, tau_ref: float) -> np.ndarray:
    """Tau of each beat, in samples, from the detector sums ``S`` of a stack in time order.

    1. Sum ``S`` over the :data:`W1` beats ``b - 12 .. b + 11`` of each beat
       ``b``, cut short at the stack ends.
    2. Unwrap the phase of those sums and scale it to samples.
    3. Fit one least-squares line to the whole stack and read it at each
       beat.
    4. Shift all by the multiple of 9/8 samples that puts the first beat's
       tau nearest ``tau_ref``.
    """
    n = len(S)
    # the cumulative sums of S, 0 before the first beat and held after the
    # last, so that the sum over beats b - 12 .. b + 11 is sums[b + 24] - sums[b]
    half = W1 // 2
    sums = np.zeros(n + W1 + 1, dtype=complex)
    np.cumsum(S, out=sums[half + 1 : half + 1 + n])
    sums[half + 1 + n :] = sums[half + n]
    moving = sums[W1 : W1 + n] - sums[:n]
    y = np.unwrap(np.angle(moving)) * _SAMPLES_PER_RADIAN

    # one line over the stack, on u = beat - (n - 1)/2: sum u = 0 and
    # sum u^2 = n (n^2 - 1) / 12; one beat has no slope, and its sum u*y is 0
    u = np.arange(n) - (n - 1) / 2
    taus = y.mean() + (u @ y) / max(n * (n * n - 1) / 12, 1) * u
    return taus + SPS * np.rint((tau_ref - taus[0]) / SPS)


def fd_interpolate(X: np.ndarray, tau_samples, out=None) -> np.ndarray:
    """Fractional-delay rotation: bin k times exp(-2j pi f_k tau).

    ``X`` holds 73-bin half spectra on its last axis; ``f_k`` is k/144
    cycles per sample.  ``tau_samples`` is one tau, or a column of them
    that broadcasts against ``X``: an ``(n, 1)`` column corrects each row of
    an ``(n, 73)`` stack by its own tau, one tau corrects every row alike.

    The factor of bin ``k`` is ``w^k`` with ``w = exp(-2j pi tau / 144)``,
    one exponential per tau.  The table of powers is built bins-major: row
    ``k`` holds ``w^k`` of every tau, a ``(73, n)`` table for a column of
    ``n`` taus, so each product below runs over whole contiguous rows, and
    the stack is multiplied by the table's transpose.  It is built by
    doubling: rows 0 and 1 hold 1 and ``w``, row 2 is ``w^2``, and then
    rows ``m+1..2m`` are rows ``1..m`` times row ``m``, ``w^m``, for
    m = 2, 4, .., 64, up to row 72.  Row ``2m`` is ``w^m`` squared, the
    multiplier of the next step.  Bin ``k`` is reached in at most seven
    products, and the factors are within 8e-15 of the exact ones for
    ``|tau| <= 3`` samples and 1.1e-13 for ``|tau| <= 200``, where
    exponentials evaluated per bin are within 2.4e-15 and 1.6e-13.  Every
    tau goes through the same operations whatever the shape of the stack,
    so a one-row call equals that row of a stacked call bit for bit.

    The product goes to ``out`` when it is given and is returned; ``out=X``
    corrects the stack in place, with the same values as a new array.
    Otherwise it is a new row-major array, one beat per contiguous row, not
    written into the table's transpose: every later stage, the fold, the
    tap fit, the DD-LMS steps and each 128-point inverse transform, walks
    the stack beat by beat.  ``X`` is left untouched unless it is ``out``.
    """
    X = np.asarray(X)
    tau = np.asarray(tau_samples, dtype=float)
    powers = np.empty((BINS_OUT, tau.size), dtype=complex)
    powers[0] = 1.0
    np.exp(_BIN_STEP * tau.reshape(-1), out=powers[1])
    # row 2 as the product of two whole rows: for a single tau, one row
    # times a broadcast row would take a numpy loop that rounds differently
    np.multiply(powers[1], powers[1], out=powers[2])
    m = 2
    while m < BINS_OUT - 1:
        top = min(2 * m, BINS_OUT - 1)
        np.multiply(powers[1 : top - m + 1], powers[m], out=powers[m + 1 : top + 1])
        m = top
    table = powers.reshape((BINS_OUT,) + tau.shape[:-1]).T
    return np.multiply(X, table, out=out, order="C")


@dataclass
class FdtrLoop:
    """Stage-2 timing recovery of one burst, named for the paper's FDTR loop it replaces."""

    alpha: float = DEFAULT_ROLLOFF   # RRC roll-off: sets the detector band
    tau_ref: float = 0.0             # samples: picks the 9/8-sample branch at the first beat

    def process_beat(self, X: np.ndarray, out=None) -> tuple[np.ndarray, np.ndarray]:
        """Correct an ``(n, 73)`` stack of beat spectra in time order, each by its own tau.

        Returns the corrected stack and the taus of :func:`estimate_taus`
        over the stack's detector sums.  The corrected stack goes to
        ``out`` as in :func:`fd_interpolate`: ``out=X`` corrects ``X`` in
        place, after its detector sums are taken.
        """
        taus = estimate_taus(godard_error(X, self.alpha), self.tau_ref)
        return fd_interpolate(X, taus[:, None], out=out), taus
