"""Receiver front end: beat slicing, frame detection, initial SPO estimate.

One rule cuts the incoming waveform into beats,
:func:`burstrx.txchain.window_rows`, the reader that also cuts the
transmitter's blocks and the channel's windows; :func:`rx_slice_beats`
holds the beat geometry.  A beat is the 144-sample window of its 108-sample
body and the 36 samples before it, which it shares with the beat before,
and a run of beats advances 108 samples from the body start it is given.
Acquisition runs the grid from sample 0; demodulation runs it from
Preamble B's body, so each beat it reads holds 96 symbols of the frame.
Each beat is real, so its 144-point FFT is carried as the 73-bin half
spectrum, bins 0..72.
Detection looks for the Preamble-A tone: after the FFT and RRC, a pure
alternating preamble concentrates all non-DC power in bin 64, the point at
``N/(2*sps)``, and its mirror 80 = 144 - 64, which the half spectrum leaves
out as ``X(80) = conj(X(64))``.  A beat passes when the tone bin's power is
at least ``DETECT_POWER_FACTOR`` times the mean power off DC and the tone
pair.  :func:`detect_frame` returns the boolean mask of the beats that
pass, one entry per beat.

The initial sampling-phase estimate reads the phase between those two bins,
``X(64) conj(X(80)) = X(64)^2``, summed over the beats that detection passed:

    tau0 = (sps / 2pi) * arg sum_b X_b(64)^2

in units of samples at 1.125 sps.  ``X(64)^2`` is the timing detector's pair
product ``X(k) X(128 - k)`` (:func:`burstrx.timing.pair_products`) at the
tone bin: tau0 zeroes the detector error read at bin 64 alone, and stage 2
reads its taus from the phase of the pair products summed over the excess
band (:func:`burstrx.timing.estimate_taus`).  Feeding tau0
straight into the frequency-domain interpolator cancels the offset.  This is
the spectral-line estimate of Oerder & Meyr (IEEE Trans. Commun., 1988): a
beat that holds only part of the tone adds little to the sum.

Paper fidelity: the hardware's detector is a peak search, a tree of power
comparisons with a margin (``detect_tree_search`` in
:data:`burstrx.pipeline.STAGES`); this threshold on the tone bin alone is an
extension.  A beat that holds only part of a one-beat Preamble A spreads its
peak into the bins beside 64, so at roll-offs near 1/64 a test that the
peak falls on bin 64 misses the burst at some arrival phases, while the
tone bin's own power still passes the threshold.  At factor 4.7 the
threshold fires on fewer beats of RRC-shaped white noise than that peak
test did at factor 4.0.
"""

import numpy as np

from .fourier import fft_144
from .timing import pair_products
from .txchain import BINS_OUT, N_OUT, OVERLAP_OUT, SAMPLES_PER_BEAT, SPS, window_rows

TONE_BIN = 64   # N / (2 * sps)
DETECT_POWER_FACTOR = 4.7  # tone bin power over the mean power off the tone pair
# The detection floor is the mean power of the 141 non-DC bins of the full
# spectrum off the tone pair 64 and 80: in the half spectrum bins 1..71 but
# 64 count twice, for themselves and their mirrors, and the Nyquist bin 72
# once.
_FLOOR_WEIGHTS = np.zeros(BINS_OUT)
_FLOOR_WEIGHTS[1:-1] = 2.0
_FLOOR_WEIGHTS[-1] = 1.0
_FLOOR_WEIGHTS[TONE_BIN] = 0.0
_FLOOR_WEIGHTS /= _FLOOR_WEIGHTS.sum()


def rx_slice_beats(samples: np.ndarray, start: int, n_beats: int) -> np.ndarray:
    """The ``(rows, 144)`` windows of the beats whose bodies start at ``start``.

    Row ``j`` is ``samples[start - 36 + 108 j : start + 108 + 108 j]``: the
    36 samples that overlap the beat before, then the beat's 108-sample body
    at ``start + 108 j``.  Samples before index 0 read as 0.  At most
    ``n_beats`` rows are returned, fewer where the samples end before a
    body does.  The rows are :func:`burstrx.txchain.window_rows`, a
    read-only strided view in which overlapping beats share memory: from
    ``start >= 36`` on a view of ``samples`` itself, with no copy, and
    before that of a zero-padded copy of the span the rows cover.
    """
    samples = np.asarray(samples, dtype=np.float64)
    n_beats = min(n_beats, (len(samples) - start) // SAMPLES_PER_BEAT)
    if n_beats < 1:
        return np.zeros((0, N_OUT))
    return window_rows(samples, start - OVERLAP_OUT, n_beats, SAMPLES_PER_BEAT, N_OUT)


def beat_spectra(beats: np.ndarray, response: np.ndarray) -> np.ndarray:
    """73-bin half spectrum of each beat, shaped by the receive RRC ``response``."""
    X = fft_144(beats)
    X *= response
    return X


def detect_frame(X: np.ndarray) -> np.ndarray:
    """The mask of the beats in which the Preamble-A tone is found.

    ``X`` holds 73-bin half spectra on its last axis, and the mask has its
    leading shape.  A beat is detected when its tone-bin power is nonzero
    and at least ``DETECT_POWER_FACTOR`` times the mean power of the full
    spectrum off DC and the tone pair.  Scaling-invariant by construction.
    """
    power = np.abs(np.asarray(X)) ** 2
    tone = power[..., TONE_BIN]
    return (tone > 0) & (tone >= DETECT_POWER_FACTOR * (power @ _FLOOR_WEIGHTS))


def estimate_initial_spo(X: np.ndarray) -> float:
    """Initial sampling-phase offset from the tone-pair phase, in samples.

    ``X`` holds 73-bin half spectra on its last axis; the tone-pair products
    ``X(64)^2`` of all rows are summed before the phase is taken.
    """
    prod = np.sum(pair_products(X, TONE_BIN))
    return SPS / (2 * np.pi) * float(np.angle(prod))
