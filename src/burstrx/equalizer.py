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
sign is the one stability forces.  The step is power-normalized: the
configured ``mu`` divided by the beat's mean per-bin power
``mean_k |Y(k)|^2``, the same on every bin.  It does not depend on the taps,
so :func:`ddlms_update` forms ``2 mu(k) conj(Y(k))`` for every payload beat
at once and keeps only equalize, decide and update in its per-beat loop.

Decisions compare each sample with a running threshold, the midpoint of the
mean levels decided so far.  :meth:`ThresholdTracker.step` is that recursion
for one beat; :func:`decide_demap` (a stack with fixed taps) and
:func:`ddlms_update` (one beat at a time) both call it.
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

    def step(self, ordered: np.ndarray, below: np.ndarray) -> float:
        """Decide one beat; returns the threshold its samples are decided against.

        ``ordered`` is the beat's samples sorted and ``below`` their cumulative
        sum, so one search gives the beat's 0/1 split and level sums, and the
        recursion itself is scalar.
        """
        used = self.value
        n0 = int(ordered.searchsorted(used, side="right"))
        sum0 = below.item(n0 - 1) if n0 else 0.0
        self.update(sum0, n0, below.item(-1) - sum0, ordered.size - n0)
        return used


def decide_demap(z: np.ndarray, tracker: ThresholdTracker) -> np.ndarray:
    """Hard-decide rows of time samples to bits, refreshing the threshold per row.

    ``z`` holds one beat per row on its last axis, in time order.  Each row is
    decided against the threshold left by the rows before it, one
    :meth:`ThresholdTracker.step` per row after one sort and one cumulative
    sum over the whole stack.
    """
    z = np.asarray(z).real
    rows = z.reshape(-1, z.shape[-1])
    ordered = np.sort(rows, axis=-1)
    below = np.cumsum(ordered, axis=-1)
    used = np.empty(len(rows))
    for m in range(len(rows)):
        used[m] = tracker.step(ordered[m], below[m])
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


def ddlms_update(state: FdeState, Y: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Equalize, decide and track a stack of payload beats; returns ``(z, bits)``.

    ``Y`` holds the folded payload spectra, one beat per row in time order.
    Each beat is equalized with the taps the previous beat's update left; its
    valid positions 32..127 are ``z`` and the bits decided from them the
    reference of its error.  The step is the configured ``mu`` normalized by
    the beat's mean per-bin power (power-normalized LMS), uniform across
    bins, and 0 on a silent beat.  It does not depend on the taps, so it is
    formed for the whole stack at once; only the recursion runs per beat.
    """
    Y = np.asarray(Y)
    power = np.mean(np.abs(Y) ** 2, axis=-1)
    mu_eff = np.divide(state.mu, power, out=np.zeros_like(power), where=power > 0)
    steps = (2.0 * mu_eff)[:, None] * np.conj(Y)
    z = np.empty((len(Y), N_IN - OVERLAP_IN), dtype=np.complex128)
    bits = np.empty(z.shape, dtype=np.uint8)
    e = np.zeros(N_IN, dtype=np.complex128)
    W = state.W
    for b in range(len(Y)):
        z[b] = fft_pow2(Y[b] * W, inverse=True)[OVERLAP_IN:]
        row = z[b].real
        ordered = np.sort(row)
        bits[b] = row > state.threshold.step(ordered, np.cumsum(ordered))
        e[OVERLAP_IN:] = bits[b] - z[b]
        W = W + steps[b] * fft_pow2(e)
    state.W = W
    return z, bits
