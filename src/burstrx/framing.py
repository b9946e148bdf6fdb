"""Burst frame construction: designed preamble and payload.

The frame is ``A || B || C || payload`` at one sample per symbol with the
unipolar PAM2 alphabet {0, 1}:

* Preamble A, 192 symbols by default: the repeated pair ``[0, 1]``, i.e. a
  tone at half the baud rate, used for frame detection and the initial
  sampling-phase estimate.
* Preamble B, 96 symbols: three copies of a seeded 32-symbol sequence Pn with
  bipolar signs ``[+1, +1, -1]`` (the third block is the bit-flip of the
  first), used for frame synchronization.
* Preamble C, 768 symbols: seeded random bits, eight 96-symbol beats used for
  equalizer tap initialization.

All pseudo-random content comes from the documented xorshift64* generator so
the sequences are reproducible from the seeds alone (see :mod:`burstrx.prng`).
"""

from dataclasses import dataclass

import numpy as np

from . import framesync, prng
from .errors import LayoutError, PayloadError

PN_LEN = 32


@dataclass(frozen=True)
class FrameLayout:
    """Lengths and seeds shared by transmitter and receiver."""

    preamble_a_len: int = 192
    preamble_b_len: int = 96
    preamble_c_len: int = 768
    payload_len: int = 130_000
    pn_seed: int = 0x5EED_0001
    preamble_c_seed: int = 0x5EED_0002

    def __post_init__(self):
        if self.preamble_a_len <= 0 or self.preamble_a_len % 2:
            raise LayoutError("preamble_a_len must be positive and even")
        if self.preamble_b_len != 3 * PN_LEN:
            raise LayoutError(f"preamble_b_len must be {3 * PN_LEN}")
        if self.preamble_c_len <= 0 or self.preamble_c_len % 96:
            raise LayoutError("preamble_c_len must be a positive multiple of 96")
        if self.payload_len < 0:
            raise LayoutError("payload_len must be >= 0")

    @property
    def preamble_len(self) -> int:
        return self.preamble_a_len + self.preamble_b_len + self.preamble_c_len

    @property
    def total_len(self) -> int:
        return self.preamble_len + self.payload_len

    def preamble_duration_ns(self, baud_gbd: float = 25.0) -> float:
        """Preamble airtime in nanoseconds at the given baud rate."""
        return self.preamble_len / baud_gbd


def gen_preamble_a(layout: FrameLayout) -> np.ndarray:
    """Alternating ``[0, 1, 0, 1, ...]`` tone preamble."""
    if layout.preamble_a_len % 2:
        raise LayoutError("preamble A length must be even")
    out = np.zeros(layout.preamble_a_len, dtype=np.float64)
    out[1::2] = 1.0
    return out


def pn_sequence(seed: int) -> np.ndarray:
    """The 32-symbol bipolar +-1 synchronization sequence for a seed."""
    return 2.0 * prng.bits(seed, PN_LEN).astype(np.float64) - 1.0


def gen_preamble_b(layout: FrameLayout) -> np.ndarray:
    """Three Pn blocks with signs [+1, +1, -1], mapped back to {0, 1}.

    In the bipolar domain the third block is the negation of the first, which
    for unipolar bits means a plain bit flip.
    """
    block = prng.bits(layout.pn_seed, PN_LEN).astype(np.float64)
    return np.concatenate([block, block, 1.0 - block])


def gen_preamble_c(layout: FrameLayout) -> np.ndarray:
    """Seeded random training symbols, a whole number of 96-symbol beats."""
    return prng.bits(layout.preamble_c_seed, layout.preamble_c_len).astype(np.float64)


def gen_payload_bits(layout: FrameLayout, seed: int) -> np.ndarray:
    """Seeded PRBS payload of the layout's declared length."""
    return prng.bits(seed, layout.payload_len)


def build_frame(layout: FrameLayout, payload_bits: np.ndarray) -> np.ndarray:
    """Assemble the PAM2 symbols ``A || B || C || payload``."""
    payload_bits = np.asarray(payload_bits)
    if len(payload_bits) != layout.payload_len:
        raise PayloadError(
            f"payload has {len(payload_bits)} bits, layout declares {layout.payload_len}"
        )
    return np.concatenate(
        [
            gen_preamble_a(layout),
            gen_preamble_b(layout),
            gen_preamble_c(layout),
            payload_bits.astype(np.float64),
        ]
    )


def validate_pn_seed(seed: int, min_ratio: float = 2.0) -> float:
    """Check the sync-metric peak uniqueness for a Pn seed.

    Builds the clean bipolar preamble B, evaluates the sliding metric at every
    placement, and returns the ratio of the true peak to the largest magnitude
    elsewhere.  Raises :class:`LayoutError` when the ratio is below
    ``min_ratio``; callers use this at config load to reject bad seeds.
    """
    pn = pn_sequence(seed)
    b = np.concatenate([pn, pn, -pn])
    # Preamble B embedded mid-window so every relevant shift of the metric
    # sees it, flanked by silence.
    guard = np.zeros(96)
    metric = framesync.metric_stream(np.concatenate([guard, b, guard]), pn)
    peak_pos = int(np.argmax(metric))
    peak = metric[peak_pos]
    rest = np.abs(np.delete(metric, peak_pos))
    ratio = peak / max(rest.max(), 1e-12)
    if ratio < min_ratio:
        raise LayoutError(
            f"pn_seed {seed:#x} gives sync peak ratio {ratio:.2f} < {min_ratio}"
        )
    return float(ratio)
