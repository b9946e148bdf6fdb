"""Impairment channel between transmitter samples and receiver samples.

Everything here is a declared stand-in: the hardware paper gives no channel
equations, so each impairment is a simple testable model.  Received optical
power is not modeled physically: the noise level is set by the electrical
``snr_db`` alone, and :func:`rop_to_snr` is the two-point linear calibration
that maps an ROP axis onto it.

Impairment order in :func:`run_channel`: gain, then one windowed filter
that applies the low-pass, the fixed timing offset and the clock drift
together, then additive noise, with inter-burst gaps spliced around the
frame.

The channel's timing is one line, ``tau(t) = offset + ppm * 1e-6 * t``
samples, held constant over each chunk of :data:`DRIFT_CHUNK` samples at
its centre's value.  Each chunk's ``tau = m + f`` splits with
``m = rint(tau)``, as a symbol-timing NCO splits a basepoint index from a
fractional interval (Gardner, "Interpolation in digital modems -- Part I",
IEEE Trans. Commun. 1993).  The chunk's window, the chunk with
:data:`DRIFT_PAD` samples of context on both sides, is read ``m`` samples
earlier from the zero-padded frame, an exact integer delay, and stacked
``rfft``/``irfft`` pairs filter every window by the delay factor of
``|f| <= 1/2`` times the Gaussian low-pass response.  So a window of
:data:`DRIFT_WIDTH` = 384 = 2**7 * 3 samples, a fast transform length,
holds any offset and drift, a delayed frame reads silence past its ends
(never its own other end), and nothing the filter rings past the frame's
ends reaches the gaps.

The cost is the windows' overlap: the transforms cover 384 / 144 = 2.7
times the frame's samples, and a call with the low-pass alone takes about
0.8 ms on a 35 316-sample frame on a 2-core VM.  The windows are rows of
:func:`burstrx.txchain.window_rows` over the frame; they run past both of
its ends, so they read a zero-padded copy of it.  They are filtered
:data:`CHANNEL_BLOCK` = 64 at a time, so their stacked samples and spectra
add about 0.4 MB to the call's transient memory whatever the frame's
length: beside the capture, the frame's zero-padded copy and the noise, a
call on that frame peaks at about 1.2 MB.

The largest error, as a share of the frame's RMS, on transmitted frames of
the default layout, against the true ramp ``x(t - ppm * 1e-6 * t)`` for
the drift, the exact delay of the zero-padded frame for the offset, and
the Gaussian over the whole zero-padded frame for the low-pass (each
evaluated from the DFT of the zero-padded frame):

==============================  =======
payload (samples), impairment   error
==============================  =======
1 920 bits (3 672), 100 ppm     1.9%
1 920 bits (3 672), 1000 ppm    20%
9 600 bits (12 312), 400 ppm    7.7%
30 000 bits (35 316), 20 ppm    1.4%
30 000 bits (35 316), +-0.3 UI  1.0%
30 000 bits (35 316), 2.7 UI    0.07%
30 000 bits (35 316), 3-20 GHz  0.0026%
==============================  =======

Two errors make it up.  The drift is a staircase, not a ramp: tau steps by
``ppm * 1e-6 * DRIFT_CHUNK`` samples between chunks.  And each window's
fractional delay is filtered over its :data:`DRIFT_WIDTH` samples alone, a
truncation of the filter's response, largest near half a sample (a 0.3 UI
offset is 0.34 samples, 2.7 UI is 3 + 0.04) and smallest for the
low-pass, whose response decays within a window.  At 100 ppm and above
the staircase is most of it (about 2% against 0.4% at 1 920 bits and
100 ppm); at 20 ppm the truncation is (about 1.2% against 0.4% at
30 000 bits).

The window starts and filter factors depend on the configuration and the
frame length alone, so they are built once per key ``(n, f3db_ghz,
offset_samples, ppm)`` and then shared, read-only, by every burst that has
the same key (a bounded ``lru_cache``, :func:`window_factors`).  Without
drift every window has the same factors, and the table holds one row.
"""

import math
from dataclasses import dataclass
from functools import lru_cache
from typing import Optional

import numpy as np

from .errors import ChannelError
from .txchain import SPS, window_rows

BAUD_HZ = 25e9
SAMPLE_RATE_HZ = BAUD_HZ * SPS
# The channel's delay is piecewise constant over chunks of DRIFT_CHUNK
# samples, each filtered with DRIFT_PAD samples of context on both sides.
DRIFT_CHUNK = 144
DRIFT_PAD = 120
DRIFT_WIDTH = DRIFT_CHUNK + 2 * DRIFT_PAD  # 384 = 2**7 * 3, a fast transform length
# Windows filtered per pass of run_channel: bounds its transient memory, not its output.
CHANNEL_BLOCK = 64


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
    """Delay a block by a (fractional) number of samples, exactly and circularly.

    All-pass ``exp(-2j pi f tau)`` applied over the whole block in one
    transform: a positive tau moves the block's last tau samples to its
    head, a negative one its first ``|tau|`` to its tail.  On a block
    zero-padded past tau at both ends this is the exact delay, so the tests
    use it as the reference for :func:`run_channel`'s windowed filter.  On
    a stack of blocks, one per row, a column of taus delays each row by its
    own.
    """
    n = x.shape[-1]
    return np.fft.irfft(np.fft.rfft(x) * delay_factor(n, tau_samples), n)


@lru_cache(maxsize=4)
def window_factors(n: int, f3db_ghz: Optional[float], offset_samples: float,
                   ppm: float) -> tuple[np.ndarray, np.ndarray]:
    """Window starts and filter factors of an ``n``-sample frame; read-only.

    One entry per chunk of ``DRIFT_CHUNK`` samples.  Chunk ``i``'s tau,
    ``offset_samples + ppm * 1e-6`` times its centre sample, splits as
    ``m + f`` with ``m = rint(tau)``.  Start ``i`` is where the chunk's
    window, moved ``m`` samples earlier, begins in the frame padded with
    ``DRIFT_WIDTH`` zeros on each side.  Row ``i`` of the factors is
    :func:`delay_factor` of the window at ``f``, times the Gaussian
    low-pass ``|H| = 2**(-0.5 * (freq / f3db)**2)`` (3 dB down at ``f3db``,
    zero phase) when ``f3db_ghz`` is set.  Without drift, ``ppm == 0``,
    every chunk has the same tau, and the factors are one row broadcast to
    every chunk (row stride 0).
    """
    chunks = np.arange(0, n, DRIFT_CHUNK)
    tau = offset_samples + ppm * 1e-6 * 0.5 * (chunks + np.minimum(chunks + DRIFT_CHUNK, n))
    m = np.rint(tau)
    # a window moved wholly past either end reads only silence; clipped
    # there, any finite tau gives a start inside the padded copy
    starts = (np.clip(chunks - DRIFT_PAD - m, -DRIFT_WIDTH, n) + DRIFT_WIDTH).astype(np.intp)
    # without drift every chunk has the same tau: one row, broadcast to all
    h = delay_factor(DRIFT_WIDTH, (tau - m)[: len(tau) if ppm else 1, None])
    if f3db_ghz is not None:
        freq = np.fft.rfftfreq(DRIFT_WIDTH, d=1.0 / SAMPLE_RATE_HZ)
        h *= 2.0 ** (-0.5 * (freq / (f3db_ghz * 1e9)) ** 2)
    starts.flags.writeable = False
    h.flags.writeable = False
    return starts, np.broadcast_to(h, (len(starts), h.shape[1]))


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
    written into its middle.  When the low-pass, the timing offset or the
    drift is on, the one windowed filter of :func:`window_factors` replaces
    that span: every chunk's window is a row of
    :func:`burstrx.txchain.window_rows` over the frame, which reads a
    zero-padded copy of it, and the windows are filtered
    :data:`CHANNEL_BLOCK` at a time, each block in one stacked transform; a
    window's output does not depend on its block.  Then noise is added over the whole capture.  The input is not modified.
    The filter writes the frame's span alone, so without noise the gaps
    stay exactly 0, and a delayed frame reads silence past its ends.
    """
    frame = np.asarray(frame_samples, dtype=np.float64)
    n, gap = len(frame), cfg.gap_samples
    out = np.zeros(n + 2 * gap)
    x = out[gap : gap + n]
    np.multiply(frame, cfg.gain, out=x)
    # with all three off the filter is the identity up to rounding; skipped,
    # an unimpaired capture is the frame times the gain exactly
    if cfg.f3db_ghz is not None or cfg.timing_offset_ui or cfg.clock_ppm:
        starts, factors = window_factors(n, cfg.f3db_ghz, cfg.timing_offset_ui * SPS,
                                         cfg.clock_ppm)
        # row j is x[j - 384 : j], the window that starts at sample j of the
        # frame padded with DRIFT_WIDTH zeros on each side; the rows run past
        # both ends of the frame, so they read a zero-padded copy while the
        # filter writes into x
        rows = window_rows(x, -DRIFT_WIDTH, n + DRIFT_WIDTH + 1, 1, DRIFT_WIDTH)
        for first in range(0, len(starts), CHANNEL_BLOCK):
            last = first + CHANNEL_BLOCK
            windows = rows[starts[first:last]]
            spectra = np.fft.rfft(windows)
            spectra *= factors[first:last]
            np.fft.irfft(spectra, DRIFT_WIDTH, out=windows)
            span = x[first * DRIFT_CHUNK : last * DRIFT_CHUNK]
            span[:] = windows[:, DRIFT_PAD : DRIFT_PAD + DRIFT_CHUNK].reshape(-1)[: len(span)]
    if cfg.snr_db is not None:
        rng = np.random.default_rng(cfg.rng_seed)
        out = apply_awgn(out, cfg.snr_db, rng, power_ref=signal_power_ac(x))
    return out
