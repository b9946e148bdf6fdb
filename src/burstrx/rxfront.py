"""Receiver front end: beat slicing, frame detection, initial SPO estimate.

The incoming waveform is cut into 144-sample beats that advance 108 samples
per beat (36 samples of overlap with the previous beat).  Detection looks for
the Preamble-A tone pair: after the 144-point FFT and RRC, a pure alternating
preamble concentrates all non-DC power in bins 64 and 80, the points at
``N/(2*sps)`` and ``N - N/(2*sps)``.

The initial sampling-phase estimate reads the phase between those two bins:

    tau0 = (sps / 2pi) * arg[X(64) * conj(X(80))]

in units of samples at 1.125 sps; feeding tau0 straight into the
frequency-domain interpolator cancels the offset.  The hardware's tree-search
comparison is functionally an argmax and is modeled as such; its cycle counts
live in the pipeline dataset.
"""

from dataclasses import dataclass

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from .fourier import fft_144
from .txchain import N_OUT, SAMPLES_PER_BEAT, SPS

OVERLAP = N_OUT - SAMPLES_PER_BEAT  # 36
TONE_BIN = 64                        # N / (2 * sps)
TONE_BIN_MIRROR = N_OUT - TONE_BIN   # 80


@dataclass
class DetectionResult:
    detected: bool
    peak_bin: int
    peak_ratio: float


def rx_slice_beats(samples: np.ndarray) -> np.ndarray:
    """Slice a waveform into (n_beats, 144) windows advancing 108 samples.

    The first beat's overlap region is zero-padded; every other beat's first
    36 samples equal the tail of the previous beat.  A stream shorter than
    one beat gives no rows.
    """
    samples = np.asarray(samples, dtype=np.float64)
    n_beats = len(samples) // SAMPLES_PER_BEAT
    if n_beats < 1:
        return np.zeros((0, N_OUT))
    padded = np.concatenate([np.zeros(OVERLAP), samples])
    windows = sliding_window_view(padded, N_OUT)
    return windows[: n_beats * SAMPLES_PER_BEAT : SAMPLES_PER_BEAT].copy()


def beat_spectra(beats: np.ndarray, response: np.ndarray | None = None) -> np.ndarray:
    """144-point FFT of each beat, optionally shaped by the receive RRC."""
    X = fft_144(np.asarray(beats, dtype=np.complex128))
    if response is not None:
        X = X * response
    return X


def detect_frame(X: np.ndarray, power_factor: float = 4.0) -> DetectionResult:
    """Look for the Preamble-A power peak in one beat spectrum.

    Detected when the non-DC argmax falls on a tone bin and the peak power is
    at least ``power_factor`` times the mean off-peak power.
    Scaling-invariant by construction.
    """
    power = np.abs(np.asarray(X)) ** 2
    peak_bin = int(np.argmax(power[1:])) + 1
    peak = power[peak_bin]
    off = np.delete(power[1:], [TONE_BIN - 1, TONE_BIN_MIRROR - 1])
    mean_off = float(np.mean(off))
    ratio = peak / mean_off if mean_off > 0 else np.inf
    on_tone = peak_bin in (TONE_BIN, TONE_BIN_MIRROR)
    detected = bool(on_tone and peak > 0 and peak >= power_factor * mean_off)
    return DetectionResult(detected=detected, peak_bin=peak_bin, peak_ratio=ratio)


def estimate_initial_spo(
    X: np.ndarray, floor_factor: float = 4.0
) -> tuple[float, bool]:
    """Initial sampling-phase offset from the tone-pair phase, in samples.

    Returns ``(tau0, confident)``; confidence drops when either tone bin sits
    below ``floor_factor`` times the mean off-tone power.
    """
    X = np.asarray(X)
    prod = X[TONE_BIN] * np.conj(X[TONE_BIN_MIRROR])
    tau0 = SPS / (2 * np.pi) * float(np.angle(prod))
    power = np.abs(X) ** 2
    off = np.delete(power[1:], [TONE_BIN - 1, TONE_BIN_MIRROR - 1])
    floor = float(np.mean(off)) * floor_factor
    confident = bool(min(power[TONE_BIN], power[TONE_BIN_MIRROR]) >= floor)
    return tau0, confident
