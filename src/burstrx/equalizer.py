"""Burst-mode frequency-domain equalizer: MMSE init plus simplified DD-LMS.

Tap initialization averages eight synchronized training beats:

    W(k) = sum_b C(b,k) conj(Y(b,k)) / sum_b Y(b,k) conj(Y(b,k))

where C are the reference spectra the transmitter would have produced for the
training region and Y are the received post-timing-recovery spectra.  The
1/8 mean factors cancel.

Tracking uses the decimated decision-directed update: after equalization and
the 128-point IFFT, eight time samples at stride 16 are hard-decided, an
8-point FFT (scaled by 16, the decimation factor) rebuilds their spectrum,
the error against the corresponding eight of the 128 equalized bins is
duplicated 16x across the band, and the taps move along the stochastic
gradient:

    W(k) <- W(k) + 2 mu(k) conj(Y(k)) e(k),   e = Z_hat - Z

The error is decision-minus-output: with the opposite ordering the update
adds energy along the tap direction and the loop diverges, so the gradient
sign is the one stability forces.  The decimated error is exact for
frequency-flat beats and approximate otherwise, trading accuracy for the 16x
complexity reduction.
"""

from dataclasses import dataclass, field

import numpy as np

from . import framing
from .errors import FftSizeError
from .fourier import fft_pow2
from .txchain import N_IN, OVERLAP_IN, SYMBOLS_PER_BEAT

DECIMATION = 16
PICK_BINS = np.arange(0, N_IN, DECIMATION)  # {0, 16, ..., 112}


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


def build_reference(layout: framing.FrameLayout) -> np.ndarray:
    """Reference spectra of the training beats, one row per 96-symbol beat.

    The receiver's synchronized 128-point block for a beat holds that beat's
    96 symbols in positions 32..127; positions 0..31 wrap circularly onto the
    *following* 32 symbols of the stream.  Rows are the 128-point FFTs of
    those blocks.  For the final training beat the wrapped head falls on
    payload data a fixed reference cannot know; it is modeled as the constant
    0.5 (the symbol mean), the minimum-error payload-independent guess.  The
    resulting reference depends only on the frame seeds.
    """
    c_region = framing.gen_preamble_c(layout)
    n_beats = layout.preamble_c_len // SYMBOLS_PER_BEAT
    refs = np.empty((n_beats, N_IN), dtype=np.complex128)
    for b in range(n_beats):
        cur = c_region[b * SYMBOLS_PER_BEAT : (b + 1) * SYMBOLS_PER_BEAT]
        nxt_start = (b + 1) * SYMBOLS_PER_BEAT
        if nxt_start + OVERLAP_IN <= layout.preamble_c_len:
            head = c_region[nxt_start : nxt_start + OVERLAP_IN]
        else:
            head = np.full(OVERLAP_IN, 0.5)
        refs[b] = fft_pow2(np.concatenate([head, cur]).astype(np.complex128))
    return refs


def mmse_estimate(
    Y_beats: np.ndarray, C_ref: np.ndarray, eps: float = 1e-12
) -> tuple[np.ndarray, np.ndarray]:
    """Per-bin tap estimate from the synchronized training beats.

    Returns ``(W, dead)`` where ``dead`` flags bins whose received power fell
    below ``eps``; those taps are set to zero.
    """
    Y = np.asarray(Y_beats)
    C = np.asarray(C_ref)
    if Y.shape != C.shape:
        raise ValueError(f"shape mismatch {Y.shape} vs {C.shape}")
    num = np.sum(C * np.conj(Y), axis=0)
    den = np.sum(Y * np.conj(Y), axis=0).real
    dead = den < eps
    W = np.where(dead, 0.0, num / np.where(dead, 1.0, den))
    return W, dead


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


def decide_demap(
    z: np.ndarray, tracker: ThresholdTracker
) -> tuple[np.ndarray, np.ndarray]:
    """Hard-decide rows of time samples to bits, refreshing the threshold per row.

    ``z`` holds one beat per row on its last axis, in time order.  Each row is
    decided against the threshold left by the rows before it.  Returns
    ``(bits, thresholds)``: ``thresholds`` has ``z``'s leading shape and holds
    the threshold after each row's update.
    """
    z = np.asarray(z).real
    rows = z.reshape(-1, z.shape[-1])
    # With each row sorted and summed cumulatively, one search gives the
    # row's 0/1 split at any threshold, so the recursion itself is scalar.
    ordered = np.sort(rows, axis=-1)
    below = np.cumsum(ordered, axis=-1)
    used = np.empty(len(rows))
    thresholds = np.empty(len(rows))
    for m, row in enumerate(ordered):
        used[m] = tracker.value
        n0 = int(row.searchsorted(tracker.value, side="right"))
        sum0 = below.item(m, n0 - 1) if n0 else 0.0
        tracker.update(sum0, n0, below.item(m, -1) - sum0, row.size - n0)
        thresholds[m] = tracker.value
    bits = (rows > used[:, None]).astype(np.uint8)
    return bits.reshape(z.shape), thresholds.reshape(z.shape[:-1])


@dataclass
class FdeState:
    """Equalizer taps, step size, and decision state for one burst."""

    W: np.ndarray = field(default_factory=lambda: np.ones(N_IN, dtype=np.complex128))
    mu: float = 1e-3
    threshold: ThresholdTracker = field(default_factory=ThresholdTracker)

    def initialize(self, Y_beats: np.ndarray, C_ref: np.ndarray) -> None:
        self.W, _ = mmse_estimate(Y_beats, C_ref)


def ddlms_update(
    state: FdeState, Z: np.ndarray, z: np.ndarray, Y: np.ndarray
) -> np.ndarray:
    """One decimated decision-directed tap update; returns the 128-bin error.

    ``Z`` is the equalized spectrum of the beat and ``z`` its 128-point
    inverse transform, which the caller has already computed for decisions.
    Step size is the configured ``mu`` normalized by the beat's mean per-bin
    power (power-normalized LMS), uniform across bins.
    """
    picks = z[PICK_BINS].real
    decisions = (picks > state.threshold.value).astype(np.float64)
    Z_hat8 = fft_pow2(decisions.astype(np.complex128)) * DECIMATION
    e8 = Z_hat8 - Z[PICK_BINS]
    e = np.repeat(e8, DECIMATION)
    power = float(np.mean(np.abs(Y) ** 2))
    mu_eff = state.mu / power if power > 0 else 0.0
    state.W = state.W + 2.0 * mu_eff * np.conj(Y) * e
    return e
