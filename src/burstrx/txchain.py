"""Beat-streaming transmitter: FD resampling and RRC shaping of PAM2 symbols.

Each beat takes 96 symbols at 1 sample per symbol, prepends the previous
beat's 32-symbol tail, transforms with a 128-point real FFT, widens the
65-bin half spectrum to the 73 bins of a 144-point one (1 -> 1.125 samples
per symbol), applies the root-raised-cosine response, inverse transforms,
and emits the last 108 of the 144 time samples.  The 36 discarded samples
are the overlap-save head.

The RRC here carries a linear-phase delay of half the symbol overlap,
``DEFAULT_DELAY_SYMBOLS`` = 16 symbols per filter.  With the block overlap
fixed at 32 symbols and the discard at the beat head, the shaping kernel
must be causal and contained within the overlap for the emitted stream to be
free of block seams; centering the pulse inside the overlap does exactly
that, leaving only the pulse's own far tails (~1e-3) as residual block
error.  An integer-symbol delay is invisible to the timing recovery and is
absorbed by frame synchronization downstream.

:func:`tx_frame` runs the beat loop as a batch, :data:`TX_BLOCK_BEATS`
beats per pass.  Its only whole-frame array is the output, 1.1 MB on the
default 130 000-bit frame; a pass adds its own blocks, spectra and samples,
about 0.4 MB, so a call peaks at about 1.5 MB of transient memory.

:func:`window_rows` cuts every window of the chain: the transmitter's
128-symbol blocks, the channel's filter windows and the receiver's beats.
"""

from functools import lru_cache

import numpy as np
from numpy.lib.stride_tricks import as_strided

from .errors import FftSizeError
from .fourier import fft_144, fft_pow2

# Beat geometry: all block processing in the chain is built on these.
N_IN = 128          # symbol-domain FFT size
N_OUT = 144         # sample-domain FFT size
SPS = 1.125         # samples per symbol = N_OUT / N_IN
SYMBOLS_PER_BEAT = 96
SAMPLES_PER_BEAT = 108
OVERLAP_IN = 32     # symbols carried between beats
OVERLAP_OUT = 36    # samples discarded per beat = OVERLAP_IN * SPS
BINS_IN = N_IN // 2 + 1    # 65: half spectrum of a 128-point block
BINS_OUT = N_OUT // 2 + 1  # 73: half spectrum of a 144-point beat
DEFAULT_ROLLOFF = 0.1
# Linear-phase delay of each RRC, the same at both ends (see the module docstring).
DEFAULT_DELAY_SYMBOLS = 16
# Trailing zero beats that flush the matched filters' delay out of a frame.
TX_FLUSH_BEATS = 3
# Beats shaped per pass of tx_frame: bounds its transient memory, not its output.
TX_BLOCK_BEATS = 128

# Frequency of each of the 73 half-spectrum bins of a 144-point beat, in
# cycles per symbol.  The excess band lives in f in (0.45, 0.5625].
FREQ_SYMBOL_144 = np.arange(BINS_OUT) / N_IN


def resample_up_fd(Y: np.ndarray) -> np.ndarray:
    """Widen 65-bin half spectra to 73 bins (1 sps -> 1.125 sps) in place; returns ``Y``.

    ``Y`` holds the 65 symbol-rate bins in its bins 0..64, and bins 65..72
    are written from them.  Bin ``k`` of the 144-point grid takes the
    symbol-rate bin ``k``: ``Y(k)`` for k <= 64 and ``conj(Y(128 - k))`` for
    65..71, and the Nyquist bin 72 takes the symbol-rate bin 72 - 128 = -56,
    ``Y(56)``.  So symbol-rate bins 56..71 appear twice, carrying the
    aliased excess band that the RRC then shapes: the periodic extension of
    the symbol-rate spectrum onto the wider sample-rate grid.
    """
    if Y.shape[-1] != BINS_OUT:
        raise FftSizeError(f"resample_up_fd expects {BINS_OUT} bins, got {Y.shape[-1]}")
    np.conj(Y[..., 63:56:-1], out=Y[..., BINS_IN : BINS_OUT - 1])
    Y[..., BINS_OUT - 1] = Y[..., 56]
    return Y


def rc_magnitude(f, rolloff: float = DEFAULT_ROLLOFF) -> np.ndarray:
    """Raised-cosine magnitude at frequency ``f`` in cycles per symbol."""
    f = np.abs(np.asarray(f, dtype=np.float64))
    lo = (1.0 - rolloff) / 2.0
    hi = (1.0 + rolloff) / 2.0
    out = np.zeros_like(f)
    out[f <= lo] = 1.0
    mid = (f > lo) & (f < hi)
    out[mid] = 0.5 * (1.0 + np.cos(np.pi / rolloff * (f[mid] - lo)))
    return out


@lru_cache(maxsize=8)
def rrc_response(rolloff: float = DEFAULT_ROLLOFF) -> np.ndarray:
    """73-bin RRC response sqrt(RC) delayed by ``DEFAULT_DELAY_SYMBOLS``; read-only.

    It is 0 on the Nyquist bin 72 at every roll-off up to 0.125.  Built once
    per roll-off and shared by the transmitter and every receiver.
    """
    mag = np.sqrt(rc_magnitude(FREQ_SYMBOL_144, rolloff))
    h = mag * np.exp(-2j * np.pi * FREQ_SYMBOL_144 * DEFAULT_DELAY_SYMBOLS)
    h.flags.writeable = False
    return h


def window_rows(x: np.ndarray, first: int, rows: int, hop: int, width: int) -> np.ndarray:
    """The ``(rows, width)`` windows of ``x`` that start at ``first``, one every ``hop``; read-only.

    Row ``j`` is ``x[first + hop j : first + hop j + width]``, and samples
    outside ``x`` read as 0; ``rows`` is at least 1.  When every row lies
    inside ``x`` the rows are a strided view of ``x`` itself, with no copy;
    otherwise they are a view of a zero-padded copy of only the span the
    rows cover.  Overlapping rows share memory either way.
    """
    n, end = len(x), first + hop * (rows - 1) + width
    if first < 0 or end > n:
        span = np.zeros(end - first, dtype=x.dtype)
        lo, hi = min(max(first, 0), n), min(max(end, 0), n)
        span[lo - first : hi - first] = x[lo:hi]
        x, first = span, 0
    step = x.strides[0]
    return as_strided(x[first:], shape=(rows, width), strides=(hop * step, step), writeable=False)


def tx_frame(symbols: np.ndarray, rolloff: float = DEFAULT_ROLLOFF) -> np.ndarray:
    """Shape a whole symbol stream: the beat loop as a batch, :data:`TX_BLOCK_BEATS` beats a pass.

    Beat ``b``'s 128-symbol block is ``symbols[96 b - 32 : 96 b + 96]``,
    cut by :func:`window_rows`: the previous beat's 32-symbol tail followed
    by this beat's 96 symbols, with zeros before the first symbol and after
    the last, the transmit twin of :func:`burstrx.rxfront.rx_slice_beats`.
    A pass's blocks are a view of the symbols, except in the first pass and
    the passes that reach past the last symbol, which copy only their own
    blocks' span.  One ``(TX_BLOCK_BEATS, 73)`` spectrum buffer serves every
    pass: the 128-point transform writes its 65 bins straight into bins
    0..64, :func:`resample_up_fd` fills the other 8 in place from them and
    the RRC multiplies in place, and the 108 kept samples of each inverse
    transformed beat go straight into the preallocated output.  So the only whole-frame array is the output, and
    the default 130 000-bit frame peaks at about 1.5 MB.  Each beat goes
    through the same transforms whatever pass it falls in, so the output
    does not depend on the block size.  ``TX_FLUSH_BEATS`` trailing zero beats flush
    the delay of the transmit and receive filters, so the final symbols of
    the stream reach the receiver's last beat.
    """
    symbols = np.asarray(symbols, dtype=np.float64)
    n_beats = -(-len(symbols) // SYMBOLS_PER_BEAT) + TX_FLUSH_BEATS
    h = rrc_response(rolloff)
    out = np.empty((n_beats, SAMPLES_PER_BEAT))
    spectra = np.empty((min(TX_BLOCK_BEATS, n_beats), BINS_OUT), dtype=complex)
    for start in range(0, n_beats, TX_BLOCK_BEATS):
        stop = min(start + TX_BLOCK_BEATS, n_beats)
        blocks = window_rows(symbols, SYMBOLS_PER_BEAT * start - OVERLAP_IN, stop - start,
                             SYMBOLS_PER_BEAT, N_IN)
        Y = spectra[: stop - start]
        fft_pow2(blocks, out=Y[:, :BINS_IN])
        resample_up_fd(Y)
        Y *= h
        out[start:stop] = fft_144(Y, inverse=True)[:, OVERLAP_OUT:]
    return out.reshape(-1)
