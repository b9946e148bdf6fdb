"""Receiver front end: beat slicing, frame detection, initial SPO estimate.

The incoming waveform is cut into 144-sample beats that advance 108 samples
per beat (36 samples of overlap with the previous beat).  Detection looks for
the Preamble-A tone pair: after the 144-point FFT and RRC, a pure alternating
preamble concentrates all non-DC power in bins 64 and 80, the points at
``N/(2*sps)`` and ``N - N/(2*sps)``.

The initial sampling-phase estimate reads the phase between those two bins,
summed over the beats that detection passed:

    tau0 = (sps / 2pi) * arg sum_b X_b(64) * conj(X_b(80))

in units of samples at 1.125 sps; feeding tau0 straight into the
frequency-domain interpolator cancels the offset.  This is the spectral-line
estimate of Oerder & Meyr (IEEE Trans. Commun., 1988): a beat that holds only
part of the tone adds little to the sum.  The hardware's tree-search
comparison is functionally an argmax and is modeled as such; its cycle counts
live in the pipeline dataset.
"""

from dataclasses import dataclass

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from .fourier import fft_144
from .txchain import N_OUT, OVERLAP_OUT, SAMPLES_PER_BEAT, SPS

TONE_BIN = 64                        # N / (2 * sps)
TONE_BIN_MIRROR = N_OUT - TONE_BIN   # 80
# the non-DC bins off the tone pair, whose mean power is the detection floor
_OFF_TONE = np.setdiff1d(np.arange(1, N_OUT), [TONE_BIN, TONE_BIN_MIRROR])


@dataclass
class DetectionResult:
    """Per-beat detection outcome; each field has the spectra's leading shape."""

    detected: np.ndarray
    peak_bin: np.ndarray
    peak_ratio: np.ndarray


def rx_slice_beats(samples: np.ndarray) -> np.ndarray:
    """Slice a waveform into (n_beats, 144) windows advancing 108 samples.

    The first beat's overlap region is zero-padded; every other beat's first
    36 samples equal the tail of the previous beat.  A stream shorter than
    one beat gives no rows.  The rows are a read-only strided view of one
    zero-padded copy of the samples, so overlapping beats share memory.
    """
    samples = np.asarray(samples, dtype=np.float64)
    n_beats = len(samples) // SAMPLES_PER_BEAT
    if n_beats < 1:
        return np.zeros((0, N_OUT))
    padded = np.concatenate([np.zeros(OVERLAP_OUT), samples])
    windows = sliding_window_view(padded, N_OUT)
    return windows[: n_beats * SAMPLES_PER_BEAT : SAMPLES_PER_BEAT]


def beat_spectra(beats: np.ndarray, response: np.ndarray | None = None) -> np.ndarray:
    """144-point FFT of each beat, optionally shaped by the receive RRC."""
    X = fft_144(np.asarray(beats, dtype=np.complex128))
    if response is not None:
        X = X * response
    return X


def detect_frame(X: np.ndarray, power_factor: float = 4.0) -> DetectionResult:
    """Look for the Preamble-A power peak in each beat spectrum of a stack.

    ``X`` holds 144-bin spectra on its last axis.  A beat is detected when
    its non-DC argmax falls on a tone bin and the peak power is at least
    ``power_factor`` times the mean off-peak power.  Scaling-invariant by
    construction.
    """
    power = np.abs(np.asarray(X)) ** 2
    peak_bin = np.argmax(power[..., 1:], axis=-1) + 1
    peak = np.max(power[..., 1:], axis=-1)
    mean_off = np.mean(power[..., _OFF_TONE], axis=-1)
    ratio = np.divide(peak, mean_off, out=np.full_like(peak, np.inf), where=mean_off > 0)
    on_tone = (peak_bin == TONE_BIN) | (peak_bin == TONE_BIN_MIRROR)
    detected = on_tone & (peak > 0) & (peak >= power_factor * mean_off)
    return DetectionResult(detected=detected, peak_bin=peak_bin, peak_ratio=ratio)


def estimate_initial_spo(X: np.ndarray) -> float:
    """Initial sampling-phase offset from the tone-pair phase, in samples.

    ``X`` holds 144-bin spectra on its last axis; the tone-pair products of
    all rows are summed before the phase is taken.
    """
    X = np.asarray(X)
    prod = np.sum(X[..., TONE_BIN] * np.conj(X[..., TONE_BIN_MIRROR]))
    return SPS / (2 * np.pi) * float(np.angle(prod))
