"""Impairment channel between transmitter samples and receiver samples.

Everything here is a declared stand-in: the hardware paper gives no channel
equations, so each impairment is a simple testable model.  Received optical
power is not modeled: the noise level is set by the electrical ``snr_db``
alone, and the module has no ROP axis.

Impairment order in :func:`run_channel`: the frame times the gain is
written between inter-burst gaps of silence; one windowed filter applies
the low-pass, the fixed timing offset and the clock drift together over
the frame's span; then white Gaussian noise is added in place over the
whole capture, gaps included, its variance set by ``snr_db`` against the
frame span's mean-removed power.

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
# The largest |snr_db| accepted, far past any physical SNR.
SNR_DB_LIMIT = 300.0
# The gain is accepted in [1 / GAIN_LIMIT, GAIN_LIMIT], far past any physical
# gain: within it every stage of the chain stays inside float64 at any
# accepted snr_db, and the frame span's power does not underflow to 0.
GAIN_LIMIT = 1e100


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
        if not 1.0 / GAIN_LIMIT <= self.gain <= GAIN_LIMIT:
            raise ChannelError(f"gain must be within [1/{GAIN_LIMIT:g}, {GAIN_LIMIT:g}]")
        # past about +-3 000 dB, 10 ** (snr_db / 10) overflows or underflows to 0
        if self.snr_db is not None and not -SNR_DB_LIMIT <= self.snr_db <= SNR_DB_LIMIT:
            raise ChannelError(f"snr_db must be within +-{SNR_DB_LIMIT:g} dB, or None")
        if self.f3db_ghz is not None and not 0 < self.f3db_ghz < math.inf:
            raise ChannelError("f3db_ghz must be positive and finite, or None")


@dataclass
class ChannelConfig(Impairments):
    """The impairments of one burst and the seed of its noise."""

    rng_seed: int = 0


@lru_cache(maxsize=4)
def window_factors(n: int, f3db_ghz: Optional[float], offset_samples: float,
                   ppm: float) -> tuple[np.ndarray, np.ndarray]:
    """Window starts and filter factors of an ``n``-sample frame; read-only.

    One entry per chunk of ``DRIFT_CHUNK`` samples.  Chunk ``i``'s tau,
    ``offset_samples + ppm * 1e-6`` times its centre sample, splits as
    ``m + f`` with ``m = rint(tau)``.  Start ``i`` is where the chunk's
    window, moved ``m`` samples earlier, begins in the frame padded with
    ``DRIFT_WIDTH`` zeros on each side.  Row ``i`` of the factors is the
    window's delay ``exp(-2j pi freq f)`` (``freq`` in cycles per sample)
    with its Nyquist bin set to 1, times the Gaussian low-pass
    ``|H| = 2**(-0.5 * (freq / f3db)**2)`` (3 dB down at ``f3db``, zero
    phase) when ``f3db_ghz`` is set.  A real window cannot carry a complex
    factor at the shared +-Nyquist bin, so that one bin, empty beyond the
    RRC stopband, is left untouched; at ``f = 0`` the delay is 1 there
    anyway.  Without drift, ``ppm == 0``, every chunk has the same tau, and
    the factors are one row broadcast to every chunk (row stride 0).
    """
    chunks = np.arange(0, n, DRIFT_CHUNK)
    tau = offset_samples + ppm * 1e-6 * 0.5 * (chunks + np.minimum(chunks + DRIFT_CHUNK, n))
    m = np.rint(tau)
    # a window moved wholly past either end reads only silence; clipped
    # there, any finite tau gives a start inside the padded copy
    starts = (np.clip(chunks - DRIFT_PAD - m, -DRIFT_WIDTH, n) + DRIFT_WIDTH).astype(np.intp)
    # without drift every chunk has the same tau: one row, broadcast to all
    frac = (tau - m)[: len(tau) if ppm else 1, None]
    h = np.exp(-2j * np.pi * np.fft.rfftfreq(DRIFT_WIDTH, d=1.0) * frac)
    h[:, -1] = 1.0
    if f3db_ghz is not None:
        freq = np.fft.rfftfreq(DRIFT_WIDTH, d=1.0 / SAMPLE_RATE_HZ)
        h *= 2.0 ** (-0.5 * (freq / (f3db_ghz * 1e9)) ** 2)
    starts.flags.writeable = False
    h.flags.writeable = False
    return starts, np.broadcast_to(h, (len(starts), h.shape[1]))


def run_channel(frame_samples: np.ndarray, cfg: ChannelConfig) -> np.ndarray:
    """Gap-pad a frame and push it through the configured impairments.

    The gap-padded capture is allocated once and the frame times the gain
    written into its middle.  When the low-pass, the timing offset or the
    drift is on, the one windowed filter of :func:`window_factors` replaces
    that span: every chunk's window is a row of
    :func:`burstrx.txchain.window_rows` over the frame, which reads a
    zero-padded copy of it, and the windows are filtered
    :data:`CHANNEL_BLOCK` at a time, each block in one stacked transform; a
    window's output does not depend on its block.  The filter writes the
    frame's span alone, so without noise the gaps stay exactly 0, and a
    delayed frame reads silence past its ends.

    Then, when ``snr_db`` is set, noise is added over the whole capture, in
    place: ``rng.normal(0, sigma, len(capture))`` from
    ``default_rng(rng_seed)``, with ``sigma**2 = P / 10**(snr_db / 10)`` and
    ``P`` the mean-removed power (``np.var``) of the frame's span after the
    gain and the filter, not of the capture with its gaps.  A span of zero
    power raises :class:`ChannelError`.  The input is not modified.
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
        p = float(np.var(x))
        if p <= 0.0:
            raise ChannelError("cannot set an SNR on a zero-power signal")
        sigma = np.sqrt(p / 10.0 ** (cfg.snr_db / 10.0))
        out += np.random.default_rng(cfg.rng_seed).normal(0.0, sigma, size=len(out))
    return out
