"""Impairment channel between transmitter samples and receiver samples.

Everything here is a declared stand-in: the hardware paper gives no channel
equations, so each impairment is a simple testable model.  Received optical
power is not modeled physically: the noise level is set by the electrical
``snr_db`` alone, and :func:`rop_to_snr` is the two-point linear calibration
that maps an ROP axis onto it.

Impairment order in :func:`run_channel`: gain, low-pass, fractional delay,
clock drift, additive noise, with inter-burst gaps spliced around the frame.
Each block is a numpy FFT filter: the low-pass and the fixed delay over the
whole waveform, the drift with the same delay filter over one stack of
overlapping windows.

The drift splits each chunk's delay ``tau = m + f`` with ``m = rint(tau)``,
as a symbol-timing NCO splits a basepoint index from a fractional interval
(Gardner, "Interpolation in digital modems -- Part I", IEEE Trans. Commun.
1993).  The chunk's window is read ``m`` samples earlier from the
zero-padded waveform, an exact integer delay, and only ``|f| <= 1/2`` goes
through the filter.  So a window of :data:`DRIFT_WIDTH` = 384 = 2**7 * 3
samples, a fast transform length, holds any drift, and no window reads
wrapped samples however far the drift runs past :data:`DRIFT_PAD`.  The
largest error against the true ramp ``x(t - ppm * 1e-6 * t)`` (evaluated
exactly from the DFT of the zero-padded waveform), as a share of the
waveform's RMS, on transmitted frames of the default layout:

========================  ======
payload (samples), ppm    error
========================  ======
1 920 bits (3 672), 100   1.9%
1 920 bits (3 672), 1000  20%
9 600 bits (12 312), 400  7.7%
30 000 bits (35 316), 20  1.4%
========================  ======

Two errors make it up.  The drift is a staircase, not a ramp: tau steps by
``ppm * 1e-6 * DRIFT_CHUNK`` samples between chunks.  And each window's
fractional delay is filtered over its :data:`DRIFT_WIDTH` samples alone, a
truncation of the filter's response.  At 100 ppm and above the staircase
is most of it (about 2% against 0.4% at 1 920 bits and 100 ppm); at
20 ppm the truncation is (about 1.2% against 0.4% at 30 000 bits).

The filter responses depend on the configuration and the waveform length
alone, so each is built once per key and then shared, read-only, by every
burst that has the same key (a bounded ``lru_cache``):

* the drift's window starts and fractional-delay factors, one per
  chunk, keyed on the waveform length and ``clock_ppm``
  (:func:`drift_factors`);
* the low-pass response, keyed on the transform length and ``f3db_ghz``
  (:func:`lowpass_response`).
"""

import math
from dataclasses import dataclass
from functools import lru_cache
from typing import Optional

import numpy as np
from numpy.lib.stride_tricks import as_strided

from .errors import ChannelError
from .txchain import SPS

BAUD_HZ = 25e9
SAMPLE_RATE_HZ = BAUD_HZ * SPS
# The drift is piecewise constant over chunks of DRIFT_CHUNK samples, each
# filtered with DRIFT_PAD samples of context on both sides.
DRIFT_CHUNK = 144
DRIFT_PAD = 120
DRIFT_WIDTH = DRIFT_CHUNK + 2 * DRIFT_PAD  # 384 = 2**7 * 3, a fast transform length


@dataclass
class Impairments:
    """Impairment settings, checked when built; ``None`` disables a block.

    This is also the ``channel`` section of the simulator config.
    """

    snr_db: Optional[float] = None
    timing_offset_ui: float = 0.0
    clock_ppm: float = 0.0
    f3db_ghz: Optional[float] = None
    gap_samples: int = 1080
    gain: float = 1.0

    def __post_init__(self):
        if self.gap_samples < 0:
            raise ChannelError("gap_samples must be >= 0")
        # math, not numpy: this runs on every burst
        if not (math.isfinite(self.timing_offset_ui) and math.isfinite(self.clock_ppm)):
            raise ChannelError("timing_offset_ui and clock_ppm must be finite")
        if not 0 < self.gain < math.inf:
            raise ChannelError("gain must be positive and finite")
        if self.snr_db is not None and not math.isfinite(self.snr_db):
            raise ChannelError("snr_db must be finite or None")
        if self.f3db_ghz is not None and not 0 < self.f3db_ghz < math.inf:
            raise ChannelError("f3db_ghz must be positive and finite, or None")


@dataclass
class ChannelConfig(Impairments):
    """The impairments of one burst and the seed of its noise."""

    rng_seed: int = 0


def delay_factor(n: int, tau_samples) -> np.ndarray:
    """``rfft``-domain delay factor of an ``n``-sample block; a column of taus gives rows."""
    f = np.fft.rfftfreq(n, d=1.0)
    h = np.exp(-2j * np.pi * f * np.asarray(tau_samples, dtype=np.float64))
    if n % 2 == 0:
        # A real signal cannot carry a complex factor at the shared +-Nyquist
        # bin.  Integer delays give +-1 there and stay exact; fractional ones
        # leave that single (empty, beyond the RRC stopband) bin untouched.
        nyq = h[..., -1]
        h[..., -1] = np.where(np.abs(nyq.imag) < 1e-12, nyq.real, 1.0)
    return h


def apply_fractional_delay(x: np.ndarray, tau_samples) -> np.ndarray:
    """Delay a waveform by a (fractional) number of samples.

    All-pass ``exp(-2j pi f tau)`` applied over the whole waveform in one
    block, so the shift is exact but circular: a positive tau moves the
    last tau samples to the head, a negative one the first ``|tau|`` to the
    tail.  :func:`run_channel` delays the frame alone, not its gaps, so
    those samples land in the frame's flush beats, past the last beat the
    receiver reads.  On a stack of windows, one per row, a column of
    taus delays each row by its own.
    """
    n = x.shape[-1]
    return np.fft.irfft(np.fft.rfft(x) * delay_factor(n, tau_samples), n)


def smooth_length(n: int) -> int:
    """The smallest ``2**a 3**b 5**c`` that is at least ``n``: a fast FFT length."""
    best = 1 << max(n - 1, 0).bit_length()
    odd = 1
    while odd < best:
        part = odd
        while part < best:
            best = min(best, part << max(-(-n // part) - 1, 0).bit_length())
            part *= 3
        odd *= 5
    return best


def apply_lowpass(x: np.ndarray, f3db_ghz: float) -> np.ndarray:
    """Gaussian low-pass with |H(f3db)| = 1/sqrt(2) and zero phase.

    The exponent is scaled so the 3 dB point sits exactly at ``f3db``, i.e.
    ``|H| = 2**(-0.5 * (f/f3db)**2)``.  The transform runs at
    :func:`smooth_length` of the waveform, zero-padded, and the first ``n``
    samples are kept: the filter's circular wrap runs into those zeros, not
    into the other end of the waveform (the frame's flush tail).
    """
    if f3db_ghz <= 0:
        raise ChannelError("f3db_ghz must be positive")
    n = len(x)
    m = smooth_length(n)
    return np.fft.irfft(np.fft.rfft(x, m) * lowpass_response(m, f3db_ghz), m)[:n]


@lru_cache(maxsize=4)
def lowpass_response(m: int, f3db_ghz: float) -> np.ndarray:
    """``rfft``-domain response of :func:`apply_lowpass` at transform length ``m``; read-only."""
    f = np.fft.rfftfreq(m, d=1.0 / SAMPLE_RATE_HZ)
    h = 2.0 ** (-0.5 * (f / (f3db_ghz * 1e9)) ** 2)
    h.flags.writeable = False
    return h


def apply_clock_drift(x: np.ndarray, ppm: float) -> np.ndarray:
    """Sampling-frequency offset as a slowly growing delay.

    Each chunk of ``DRIFT_CHUNK`` samples is delayed by tau = ppm * 1e-6 * t
    at its center ``t``.  Its window, the chunk with ``DRIFT_PAD`` samples of
    context on both sides, is read ``rint(tau)`` samples earlier (silence
    past the waveform's ends), and the rest of tau, at most half a sample,
    is filtered, all windows in one stacked transform with the tables of
    :func:`drift_factors`.
    """
    x = np.asarray(x, dtype=np.float64)
    if ppm == 0.0 or len(x) == 0:
        return x.copy()
    n = len(x)
    starts, factors = drift_factors(n, ppm)
    padded = np.zeros(n + 2 * DRIFT_WIDTH)
    padded[DRIFT_WIDTH : DRIFT_WIDTH + n] = x
    step = padded.strides[0]
    # row j of the view is the window that starts at sample j of the padded copy
    rows = as_strided(padded, shape=(n + DRIFT_WIDTH + 1, DRIFT_WIDTH), strides=(step, step),
                      writeable=False)
    shifted = np.fft.irfft(np.fft.rfft(rows[starts]) * factors, DRIFT_WIDTH)
    return shifted[:, DRIFT_PAD : DRIFT_PAD + DRIFT_CHUNK].reshape(-1)[:n]


@lru_cache(maxsize=4)
def drift_factors(n: int, ppm: float) -> tuple[np.ndarray, np.ndarray]:
    """Window starts and delay factors of the drift of an ``n``-sample waveform; read-only.

    One entry per chunk.  Chunk ``i``'s tau, ``ppm * 1e-6`` times its centre
    sample, splits as ``m + f`` with ``m = rint(tau)``.  Start ``i`` is where
    the chunk's window, moved ``m`` samples earlier, begins in the waveform
    padded with ``DRIFT_WIDTH`` zeros on each side; row ``i`` of the factors
    is :func:`delay_factor` of the window at ``f``.
    """
    chunks = np.arange(0, n, DRIFT_CHUNK)
    tau = ppm * 1e-6 * 0.5 * (chunks + np.minimum(chunks + DRIFT_CHUNK, n))
    m = np.rint(tau)
    # a window moved wholly past either end reads only silence; clipped
    # there, any finite ppm gives a start inside the padded copy
    starts = (np.clip(chunks - DRIFT_PAD - m, -DRIFT_WIDTH, n) + DRIFT_WIDTH).astype(np.intp)
    h = delay_factor(DRIFT_WIDTH, (tau - m)[:, None])
    starts.flags.writeable = False
    h.flags.writeable = False
    return starts, h


def signal_power_ac(x: np.ndarray) -> float:
    """Mean-removed power, the reference for the SNR definition."""
    return float(np.var(np.asarray(x, dtype=np.float64)))


def apply_awgn(x: np.ndarray, snr_db: float, rng: np.random.Generator,
               power_ref: Optional[float] = None) -> np.ndarray:
    """Add white Gaussian noise at the requested electrical SNR.

    Noise variance is ``P_ac / 10**(snr/10)`` with ``P_ac`` the mean-removed
    signal power (or an explicit reference, e.g. measured on the frame before
    gap padding).
    """
    p = signal_power_ac(x) if power_ref is None else power_ref
    if p <= 0.0:
        raise ChannelError("cannot set an SNR on a zero-power signal")
    sigma = np.sqrt(p / 10.0 ** (snr_db / 10.0))
    return x + rng.normal(0.0, sigma, size=len(x))


def rop_to_snr(rop: float, cal: dict) -> float:
    """Linear two-point map from received optical power (dBm) to electrical SNR."""
    r1, s1 = cal["rop1_dbm"], cal["snr1_db"]
    r2, s2 = cal["rop2_dbm"], cal["snr2_db"]
    if r1 == r2:
        raise ChannelError("ROP calibration points must differ")
    return s1 + (rop - r1) * (s2 - s1) / (r2 - r1)


def run_channel(frame_samples: np.ndarray, cfg: ChannelConfig) -> np.ndarray:
    """Gap-pad a frame and push it through the configured impairments.

    The gap-padded capture is allocated once and the frame times the gain
    written into its middle; each filter that is on leaves its own output,
    which is copied back there.  The input is not modified.  Each filter
    acts on the frame alone, so without noise the gaps stay exactly 0: what
    a filter rings past the frame's ends is dropped, or by the fixed delay
    wrapped onto the frame's other end, and never written into a gap.
    """
    frame = np.asarray(frame_samples, dtype=np.float64)
    gap = cfg.gap_samples
    out = np.zeros(len(frame) + 2 * gap)
    x = out[gap : gap + len(frame)]
    np.multiply(frame, cfg.gain, out=x)
    if cfg.f3db_ghz is not None:
        x[:] = apply_lowpass(x, cfg.f3db_ghz)
    if cfg.timing_offset_ui:
        x[:] = apply_fractional_delay(x, cfg.timing_offset_ui * SPS)
    if cfg.clock_ppm:
        x[:] = apply_clock_drift(x, cfg.clock_ppm)
    if cfg.snr_db is not None:
        rng = np.random.default_rng(cfg.rng_seed)
        out = apply_awgn(out, cfg.snr_db, rng, power_ref=signal_power_ac(x))
    return out
