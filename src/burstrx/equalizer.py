"""Burst-mode frequency-domain equalizer: least-squares FIR taps plus DD-LMS.

Each beat reaches the equalizer as the 128-bin folded spectrum ``Y`` of an
overlap-save block.  In ``y = IFFT(Y)`` the beat's 96 symbols sit at the
valid positions 32..127; the head 0..31 holds the overlap-save wrap, which
no fixed reference knows.  So the tap fit and the tracking error are both
measured on the valid positions only, each against one value per symbol:
the known Preamble-C symbol during training, and on the payload the bit the
receiver outputs.  This is the constrained overlap-save error of Shynk,
"Frequency-domain and multirate adaptive filtering", IEEE SP Mag. 1992.

Tap initialization fits a real FIR ``w`` at lags -16..16 by least squares
over the eight training beats (768 equations, 33 unknowns):

    min_w  sum_b || (w (*) y_b)[32:] - c_b ||^2,   W = FFT128(w)

where ``(*)`` is circular convolution and ``c_b`` the beat's 96 training
symbols.  A 128-point block with 96 valid outputs filters exactly with at
most 128 - 96 + 1 = OVERLAP_IN + 1 = 33 taps: at lags -16..16 the valid
outputs read each head position in one role only, positions 16..31 as the
past of output 32 and 0..15 as the wrap that follows output 127.  The taps
are real because the folded training blocks are.

Tracking is decision-directed LMS at full rate.  The error ``e = d - z`` on
the valid positions, with a zero head, is transformed once and the taps move
along the stochastic gradient:

    W(k) <- W(k) + 2 mu(k) conj(Y(k)) E(k),   E = FFT128(e)

The error is decision-minus-output: with the opposite ordering the update
adds energy along the tap direction and the loop diverges, so the gradient
sign is the one stability forces.
"""

from dataclasses import dataclass, field

import numpy as np

from .errors import FftSizeError
from .fourier import fft_pow2
from .txchain import N_IN, OVERLAP_IN

LAGS = np.arange(-(OVERLAP_IN // 2), OVERLAP_IN // 2 + 1)  # -16..16
# Block position that tap lag l reads for valid output n: (n - l) mod 128.
_TAP_READS = (np.arange(OVERLAP_IN, N_IN)[:, None] - LAGS) % N_IN


def strip_rolloff(X: np.ndarray) -> np.ndarray:
    """Fold a 144-bin spectrum back to the 128-bin symbol-rate spectrum.

    Inverse of the transmit-side band widening: each symbol-rate bin that was
    replicated into the excess band is reassembled by summing its two alias
    images (bins j and j+16 for j in 56..71); all other bins map one to one.
    After the matched RRC pair this fold reconstructs a Nyquist response
    exactly.
    """
    X = np.asarray(X)
    if X.shape[-1] != 144:
        raise FftSizeError(f"strip_rolloff expects 144 bins, got {X.shape[-1]}")
    return np.concatenate(
        [
            X[..., :56],
            X[..., 56:72] + X[..., 72:88],
            X[..., 88:144],
        ],
        axis=-1,
    )


def fit_taps(Y_beats: np.ndarray, c_ref: np.ndarray) -> np.ndarray:
    """Least-squares real FIR taps at ``LAGS`` from the training beats.

    ``Y_beats`` holds one folded 128-bin spectrum per row and ``c_ref`` the
    96 known symbols of each.  Solves the 33x33 normal equations of the fit
    on the valid positions; raises ``numpy.linalg.LinAlgError`` when they
    are singular, as for a silent training region.
    """
    y = fft_pow2(np.asarray(Y_beats), inverse=True).real
    A = np.take(y, _TAP_READS, axis=-1).reshape(-1, LAGS.size)
    return np.linalg.solve(A.T @ A, A.T @ np.ravel(c_ref))


def apply_fde(Y: np.ndarray, W: np.ndarray) -> np.ndarray:
    """Per-bin multiply: Z(k) = W(k) Y(k)."""
    return np.asarray(Y) * np.asarray(W)


@dataclass
class ThresholdTracker:
    """Running decision threshold: midpoint of the decided level means."""

    value: float = 0.5
    sum0: float = 0.0
    n0: int = 0
    sum1: float = 0.0
    n1: int = 0

    def update(self, sum0: float, n0: int, sum1: float, n1: int) -> None:
        """Add one beat's sums and counts of samples decided 0 and 1."""
        self.sum0 += sum0
        self.n0 += n0
        self.sum1 += sum1
        self.n1 += n1
        if self.n0 and self.n1:
            self.value = 0.5 * (self.sum0 / self.n0 + self.sum1 / self.n1)


def decide_demap(z: np.ndarray, tracker: ThresholdTracker) -> np.ndarray:
    """Hard-decide rows of time samples to bits, refreshing the threshold per row.

    ``z`` holds one beat per row on its last axis, in time order.  Each row is
    decided against the threshold left by the rows before it.
    """
    z = np.asarray(z).real
    rows = z.reshape(-1, z.shape[-1])
    # With each row sorted and summed cumulatively, one search gives the
    # row's 0/1 split at any threshold, so the recursion itself is scalar.
    ordered = np.sort(rows, axis=-1)
    below = np.cumsum(ordered, axis=-1)
    used = np.empty(len(rows))
    for m, row in enumerate(ordered):
        used[m] = tracker.value
        n0 = int(row.searchsorted(tracker.value, side="right"))
        sum0 = below.item(m, n0 - 1) if n0 else 0.0
        tracker.update(sum0, n0, below.item(m, -1) - sum0, row.size - n0)
    return (rows > used[:, None]).astype(np.uint8).reshape(z.shape)


@dataclass
class FdeState:
    """Equalizer taps, step size, and decision state for one burst."""

    W: np.ndarray = field(default_factory=lambda: np.ones(N_IN, dtype=np.complex128))
    mu: float = 1e-3
    threshold: ThresholdTracker = field(default_factory=ThresholdTracker)

    def initialize(self, Y_beats: np.ndarray, c_ref: np.ndarray) -> None:
        """Set the taps to the least-squares fit of :func:`fit_taps`.

        A training region the fit cannot use (singular normal equations)
        leaves the unit taps in place, as without tap initialization.
        """
        try:
            taps = fit_taps(Y_beats, c_ref)
        except np.linalg.LinAlgError:
            return
        w = np.zeros(N_IN, dtype=np.complex128)
        w[LAGS] = taps
        self.W = fft_pow2(w)


def ddlms_update(
    state: FdeState, z_valid: np.ndarray, d: np.ndarray, Y: np.ndarray
) -> np.ndarray:
    """One full-rate decision-directed tap update; returns the error spectrum.

    ``z_valid`` is the equalized beat at the valid positions 32..127 and
    ``d`` the bits decided from it.  Step size is the configured ``mu``
    normalized by the beat's mean per-bin power (power-normalized LMS),
    uniform across bins.
    """
    e = np.zeros(N_IN, dtype=np.complex128)
    e[OVERLAP_IN:] = d - z_valid
    E = fft_pow2(e)
    power = float(np.mean(np.abs(Y) ** 2))
    mu_eff = state.mu / power if power > 0 else 0.0
    state.W = state.W + 2.0 * mu_eff * np.conj(Y) * E
    return E
