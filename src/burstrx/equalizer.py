"""Burst-mode frequency-domain equalizer: least-squares FIR taps plus DD-LMS.

Each beat reaches the equalizer as the folded spectrum ``Y`` of a real
128-point overlap-save block, carried as its 65-bin half spectrum.  The fold
(:func:`strip_rolloff`) sums the two alias images of each symbol-rate bin in
the excess band of the 73-bin beat spectrum ``X``:

    Y(k) = X(k),                                   k = 0..55
    Y(k) = X(k) + X(k + 16) = X(k) + conj(X(128 - k)),  k = 56..64

In ``y = IFFT(Y)``, an ``irfft`` to 128 real samples, the beat's 96 symbols
sit at the valid positions 32..127; the head 0..31 holds the overlap-save
wrap, which no fixed reference knows.  So the tap fit and the tracking error
are both measured on the valid positions only, each against one value per
symbol: the known Preamble-C symbol during training, and on the payload the
bit the receiver outputs.

The equalizer is a real FIR ``w`` at the lags ``LAGS``, applied per bin as
the 65-bin ``W = FFT128(w)``.  ``LAGS`` is the one definition of the span:
the fit's read table, both lag tables below and the taps of
:class:`FdeState` are sized from it.  A 128-point block with 96 valid
outputs filters exactly with at most 128 - 96 + 1 = OVERLAP_IN + 1 = 33
taps: at lags -16..16 the valid outputs read each head position in one role
only, positions 16..31 as the past of output 32 and 0..15 as the wrap that
follows output 127.  ``LAGS`` is that widest span, -16..16.  Valid output
``n`` of beat ``b`` is row ``n`` of ``A_b w``, where ``A_b`` is the
96 x ``LAGS.size`` block of the beat's real samples read at
``(n - l) mod 128``.

Every setting starts from a least-squares fit over the eight training beats
(768 equations):

    min_w  sum_b || A_b w - c_b ||^2

with ``c_b`` the beat's 96 training symbols.  With tap initialization on it
fits every lag of ``LAGS``; with it off it fits lag 0 alone, a gain.  Either
way the output levels are {0, 1}, so every sample is decided against a fixed
0.5.

Tracking is decision-directed LMS in the constrained frequency-domain form
of Ferrara (IEEE TASSP 1980) and Shynk ("Frequency-domain and multirate
adaptive filtering", IEEE SP Mag. 1992): each bin takes its own step, and
the gradient is projected back onto the real taps at ``LAGS``,

    g_b = 2 mu IFFT128(E_b conj(Y_b) / P)  read at LAGS,
    e_b = d_b - A_b w_b,   P_k = mean_b |Y_b,k|^2,

with ``E_b`` the ``FFT128`` of the error on the valid positions (a zero
head), the error decision-minus-output (the opposite sign adds energy along
the tap direction and diverges) and the fixed step ``mu`` = ``DDLMS_MU``.
In time, ``g_b = 2 mu A'_b^T e_b``: the error correlated with the beat
whitened by the per-bin power, ``A'_b`` read from ``IFFT128(Y_b / P)``.
The whitening gives the tap modes one eigenvalue: the step matrix
``2 E[A'^T A]`` is close to ``2 (96 / 128) I``, lam ~ 1.5, where a step
divided by the beat power would leave the tap-sum mode of on-off symbols
35 times the others.  ``P`` is fixed once per burst, over the first
``DDLMS_DELAY`` payload beats, which have all arrived when the first
gradient lands; a bin with ``P_k`` = 0 takes no step.  Each payload beat
takes two 128-point transforms: one ``irfft`` to equalize it and one
``rfft`` of its error for the gradient.  In the hardware the error path
(decision alignment, tap-update alignment and those two 128-point FFTs,
``DDLMS_LOOP``) takes ``DDLMS_DELAY`` = 242 clocks, one beat each, so a
gradient reaches the taps ``D`` beats after the beat that formed it.  This
is LMS with delayed coefficient adaptation (Long, Ling and Proakis, IEEE
TASSP 1989):

    w_b = w_0 + sum_{j <= b - D} g_j.

The delay is what makes the recursion batchable.  The taps of a block of
``D`` beats depend only on the gradients of the block before it, so
:func:`ddlms_update` equalizes, decides and forms the gradients of a whole
block in one pass, ``ceil(n / D)`` passes for ``n`` beats.  A payload of at
most ``D`` beats ends before its first gradient lands and is decided with
the fitted taps alone.

Only ``LAGS.size`` of the 128 samples of ``w`` are live, and the gradient is
read at the same lags (Shynk's gradient constraint).  So neither transform
runs in full.  :func:`tap_spectrum` is a product with the fixed
``LAGS.size`` x 65 table of the ``FFT128`` of a unit tap at each lag, and the
gradient readout a product with the 65 x ``LAGS.size`` table of the
``IFFT128`` of a unit real and a unit imaginary part in each bin, read at
``LAGS``, each bin's rows scaled by its step ``2 mu / P_k`` once per burst.
Both tables come from :func:`fourier.fft_pow2`, the chain's one FFT, and
hold complex values as interleaved real and imaginary parts, so each
product is one real matrix multiply.
"""

from dataclasses import dataclass, field

import numpy as np

from .errors import FftSizeError
from .fourier import fft_pow2
from .pipeline import STAGES
from .txchain import BINS_IN, BINS_OUT, N_IN, OVERLAP_IN

LAGS = np.arange(-(OVERLAP_IN // 2), OVERLAP_IN // 2 + 1)  # -16..16
# The reads of the 96 x LAGS.size block A_b of the module docstring: row j,
# column i is the sample (n - l) mod 128 that valid output n = 32 + j reads
# at lag l = LAGS[i].
_READS = (np.arange(OVERLAP_IN, N_IN)[:, None] - LAGS) % N_IN
_READS.flags.writeable = False

# The hardware's DD-LMS error path; it handles one beat per clock, so its
# latency in clock cycles is the loop delay in beats.
DDLMS_LOOP = ["ddlms_error_align", "ddlms_update_align", "fft128", "fft128"]
DDLMS_DELAY = sum(STAGES[name] for name in DDLMS_LOOP)
# The DD-LMS step, divided in each bin by that bin's mean power.  LMS with
# the loop delay D = DDLMS_DELAY is stable only while
# mu * lam < 2 sin(pi / (2 (2D + 1))) ~ 6.48e-3 for every eigenvalue lam of
# the step matrix (Long, Ling and Proakis, IEEE TASSP 1989).  The per-bin
# power puts every eigenvalue near 2 * 96 / 128 = 1.5: 1.39..1.63 on shaped
# random on-off beats, spread by the power's estimate over D beats.  So
# mu < 4.0e-3; this step keeps a factor 2.6 from that, with a time constant
# of about 1 / (mu * lam) ~ 450 beats.
DDLMS_MU = 1.5e-3

# The two tables of the module docstring, complex values as the (re, im)
# pairs of ``complex128.view(float64)``.
_TAP_DFT = fft_pow2(np.eye(N_IN)[LAGS]).view(np.float64)                       # LAGS.size x 130
_LAG_IDFT = fft_pow2(np.eye(2 * BINS_IN).view(complex), inverse=True)[:, LAGS]  # 130 x LAGS.size


def strip_rolloff(X: np.ndarray) -> np.ndarray:
    """Fold a 73-bin half spectrum back to the 65-bin symbol-rate one.

    Inverse of the transmit-side band widening: each symbol-rate bin that was
    replicated into the excess band is reassembled by summing its two alias
    images, bins j and j+16 of the full 144-bin spectrum for j in 56..71.
    On half spectra that is ``Y[56..64] = X[56..64] + conj(X[72..64])``; all
    other bins map one to one.  Bin 72's image is exact when it is real or
    0, as the receive RRC makes it.  After the matched RRC pair this fold
    reconstructs a Nyquist response exactly.
    """
    X = np.asarray(X)
    if X.shape[-1] != BINS_OUT:
        raise FftSizeError(f"strip_rolloff expects {BINS_OUT} bins, got {X.shape[-1]}")
    return np.concatenate([X[..., :56], X[..., 56:65] + np.conj(X[..., 72:63:-1])], axis=-1)


def fit_taps(Y_beats: np.ndarray, c_ref: np.ndarray, lags=LAGS) -> np.ndarray:
    """Least-squares real FIR taps at ``lags`` (a subset of ``LAGS``).

    ``Y_beats`` holds one folded 65-bin half spectrum per row and ``c_ref`` the
    96 known symbols of each.  Solves the normal equations of the fit on the
    valid positions; raises ``numpy.linalg.LinAlgError`` when they are
    singular, as for a silent training region.
    """
    reads = _READS[:, np.asarray(lags) - LAGS[0]]
    y = fft_pow2(Y_beats, inverse=True)
    A = np.take(y, reads, axis=-1).reshape(-1, reads.shape[1])
    return np.linalg.solve(A.T @ A, A.T @ c_ref.reshape(-1))


def tap_spectrum(w: np.ndarray) -> np.ndarray:
    """65-bin ``FFT128`` of taps at ``LAGS``, one half spectrum per row of ``w``."""
    return (np.asarray(w, dtype=float) @ _TAP_DFT).view(complex)


def apply_fde(Y: np.ndarray, W: np.ndarray) -> np.ndarray:
    """Per-bin multiply: Z(k) = W(k) Y(k)."""
    return np.asarray(Y) * np.asarray(W)


def equalize(Y: np.ndarray, w: np.ndarray) -> np.ndarray:
    """Valid positions 32..127 of the beats ``Y`` filtered by the taps ``w``.

    ``w`` is one tap set for every beat, or one row of taps per beat.  The
    output is real: ``Y`` is the half spectrum of real samples and ``w`` is
    real.
    """
    return fft_pow2(apply_fde(Y, tap_spectrum(w)), inverse=True)[..., OVERLAP_IN:]


def decide_demap(z: np.ndarray) -> np.ndarray:
    """Hard-decide time samples on the {0, 1} levels: ``bit = z > 0.5``."""
    return (np.asarray(z).real > 0.5).view(np.uint8)


@dataclass
class FdeState:
    """Equalizer taps at ``LAGS`` for one burst."""

    w: np.ndarray = field(default_factory=lambda: (LAGS == 0).astype(float))

    def initialize(self, Y_beats: np.ndarray, c_ref: np.ndarray, lags=LAGS) -> None:
        """Set the taps at ``lags`` to the least-squares fit, the others to 0.

        A training region the fit cannot use (singular normal equations)
        leaves the taps in place: the unit tap, unless set otherwise.
        """
        try:
            taps = fit_taps(Y_beats, c_ref, lags)
        except np.linalg.LinAlgError:
            return
        self.w = np.zeros(LAGS.size)
        self.w[np.asarray(lags) - LAGS[0]] = taps


def _bin_steps(Y: np.ndarray) -> np.ndarray:
    """``2 mu / P_k`` for each bin, ``P_k = mean_b |Y_b,k|^2`` over the beats ``Y``.

    ``mu = DDLMS_MU``; a bin with ``P_k`` = 0 takes step 0.  Each bin's
    powers are laid out beats-contiguous before the mean, so the sum over
    the beats runs in numpy's pairwise order whatever the layout of ``Y``,
    and a stack gives the same steps in C or Fortran order.
    """
    power = np.mean(np.abs(Y.T, order="C") ** 2, axis=-1)
    return np.divide(2.0 * DDLMS_MU, power, out=np.zeros_like(power), where=power > 0)


def _gradients(Y: np.ndarray, z: np.ndarray, bits: np.ndarray, readout: np.ndarray) -> np.ndarray:
    """``g_b = IFFT128(steps E_b conj(Y_b))`` at ``LAGS`` for each beat, one row per beat.

    The error on the valid positions, with a zero head, is correlated with
    the beat's samples in the frequency domain and read back at ``LAGS``
    through ``readout``: ``_LAG_IDFT`` with the two rows of each bin scaled
    by that bin's step (:func:`_bin_steps`).  Each beat takes one transform
    here, the ``rfft`` of its error.
    """
    e = np.zeros((len(Y), N_IN))
    np.subtract(bits, z, out=e[:, OVERLAP_IN:])
    corr = fft_pow2(e)
    corr *= np.conj(Y)
    return corr.view(np.float64) @ readout


def ddlms_update(state: FdeState, Y: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Equalize, decide and track a stack of payload beats; returns ``(z, bits)``.

    ``Y`` holds the folded 65-bin payload spectra, one beat per row in time order.
    Beat ``b`` is equalized with ``w_b = w_0 + sum_{j <= b - D} g_j`` (see the
    module docstring), ``D = DDLMS_DELAY``, and its valid positions 32..127
    are ``z``.

    The stack runs in blocks of ``D`` beats.  A block's taps are the taps
    that had landed before it plus the running sum of the previous block's
    gradients; then the block is equalized, decided and turned into the
    gradients of the next block in one pass each.  Gradients that would land
    after the last beat are not formed.  Only when a gradient lands is the
    per-bin step fixed from the first ``D`` beats, and the gradient readout
    scaled by it, once for the whole stack.  ``state.w`` ends as the taps of
    the last beat, so a stack of at most ``D`` beats leaves it unchanged.
    """
    Y = np.asarray(Y)
    n, delay = len(Y), DDLMS_DELAY
    z = np.empty((n, N_IN - OVERLAP_IN))
    bits = np.empty(z.shape, dtype=np.uint8)
    w = state.w
    grads = np.zeros((min(delay, n), LAGS.size))
    readout = np.repeat(_bin_steps(Y[:delay]), 2)[:, None] * _LAG_IDFT if n > delay else None
    for start in range(0, n, delay):
        stop = min(start + delay, n)
        taps = w + np.cumsum(grads[: stop - start], axis=0)
        z[start:stop] = equalize(Y[start:stop], taps)
        bits[start:stop] = decide_demap(z[start:stop])
        w = taps[-1]
        if stop < n:
            landing = slice(start, start + min(delay, n - stop))
            grads = _gradients(Y[landing], z[landing], bits[landing], readout)
    state.w = w
    return z, bits
