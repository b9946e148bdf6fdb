"""Burst frame construction: designed preamble and payload.

The frame is ``A || B || C || payload`` at one sample per symbol with the
unipolar PAM2 alphabet {0, 1}:

* Preamble A, 192 symbols by default and at least 128: the repeated pair
  ``[0, 1]``, i.e. a tone at half the baud rate, used for frame detection
  and the initial sampling-phase estimate.
* Preamble B, 96 symbols: three copies of a fixed 32-symbol sequence Pn with
  bipolar signs ``[+1, +1, -1]`` (the third block is the bit-flip of the
  first), used for frame synchronization.
* Preamble C, 768 symbols: fixed random bits, eight 96-symbol beats used for
  equalizer tap initialization.

Pn and Preamble C are fixed, as in the hardware: each is drawn from the
documented xorshift64* generator (see :mod:`burstrx.prng`) with a seed that
is a constant of :class:`FrameLayout`, not a setting.  So ``A || B || C``
is built once per preamble geometry (:func:`fixed_preamble`), each frame
is a copy of it followed by the payload, and the receiver reads its Pn and
Preamble-C references from that same array.
"""

from dataclasses import dataclass
from functools import lru_cache
from typing import ClassVar

import numpy as np

from . import prng
from .errors import LayoutError, PayloadError

PN_LEN = 32


@dataclass(frozen=True)
class FrameLayout:
    """Lengths and seeds shared by transmitter and receiver.

    Preamble A is at least 128 symbols, one 144-sample beat window of tone.
    The floor has room: noiseless 960-bit bursts with 96 symbols of
    Preamble A decode at all 108 arrival phases on the beat grid at
    roll-offs 1/64, 0.0324 and 0.125.
    """

    # not settings: three Pn blocks, and the seeds of the fixed Pn and Preamble C
    preamble_b_len: ClassVar[int] = 3 * PN_LEN
    pn_seed: ClassVar[int] = 0x5EED_0001
    preamble_c_seed: ClassVar[int] = 0x5EED_0002
    preamble_a_len: int = 192
    preamble_c_len: int = 768
    payload_len: int = 130_000

    def __post_init__(self):
        if self.preamble_a_len < 128 or self.preamble_a_len % 2:
            raise LayoutError("preamble_a_len must be even and at least 128, one beat of tone")
        if self.preamble_c_len <= 0 or self.preamble_c_len % 96:
            raise LayoutError("preamble_c_len must be a positive multiple of 96")
        if self.payload_len < 0:
            raise LayoutError("payload_len must be >= 0")


def gen_preamble_a(layout: FrameLayout) -> np.ndarray:
    """Alternating ``[0, 1, 0, 1, ...]`` tone preamble."""
    out = np.zeros(layout.preamble_a_len, dtype=np.float64)
    out[1::2] = 1.0
    return out


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


def fixed_preamble(layout: FrameLayout) -> np.ndarray:
    """The fixed symbols ``A || B || C``, built once per pair of preamble lengths; read-only."""
    return _fixed_preamble(layout.preamble_a_len, layout.preamble_c_len)


@lru_cache(maxsize=8)
def _fixed_preamble(preamble_a_len: int, preamble_c_len: int) -> np.ndarray:
    layout = FrameLayout(preamble_a_len, preamble_c_len, payload_len=0)
    out = np.concatenate([gen_preamble_a(layout), gen_preamble_b(layout), gen_preamble_c(layout)])
    out.flags.writeable = False
    return out


def build_frame(layout: FrameLayout, payload_bits: np.ndarray) -> np.ndarray:
    """Assemble the PAM2 symbols ``A || B || C || payload`` in a new array."""
    payload_bits = np.asarray(payload_bits)
    if len(payload_bits) != layout.payload_len:
        raise PayloadError(
            f"payload has {len(payload_bits)} bits, layout declares {layout.payload_len}"
        )
    head = fixed_preamble(layout)
    frame = np.empty(len(head) + len(payload_bits))
    frame[: len(head)] = head
    frame[len(head) :] = payload_bits
    return frame
