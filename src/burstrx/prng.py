"""Seeded bit generator used for preambles and payload data.

Every pseudo-random sequence in the frame comes from xorshift64* so that any
implementation of this chain, in any language, can reproduce the exact same
symbols from the documented seeds.  The specification is the recurrence:

    x ^= x >> 12;  x ^= x << 25;  x ^= x >> 27      (mod 2**64)
    output = (x * 2685821657736338717) mod 2**64

applied once per 64-bit output, which gives 64 bits taken MSB first.  A seed
that is 0 mod 2**64 starts from ``0x9E3779B97F4A7C15`` instead, since the
zero state is absorbing.

The implementation runs that recurrence in 64 lanes: the first 64 states
come from the loop, and every later state from one table jump per block.
The state update is linear over GF(2), a 64 x 64 bit matrix ``M``, so state
``64 a + j`` is ``M**(64 a)`` applied to state ``j``.  Each jump matrix is
applied through eight 256-entry tables, one per byte of the state, in one
vectorized gather per byte (Haramoto et al., "Efficient jump ahead for
F2-linear random number generators", INFORMS J. Computing 2008).  The
tables of ``a = 1 .. 32`` (512 KB) are built on the first call that needs
more than 64 states; past 2 048 states the last of them jumps the 64 lanes
on to the next 2 048.  The output multiply comes last, on all states at
once.
"""

from functools import lru_cache

import numpy as np

_MASK64 = (1 << 64) - 1
_MULT = 2685821657736338717
LANES = 64          # states run through the recurrence; also the block length
JUMP_BLOCKS = 32    # blocks per table set; the last table jumps to the next set
_BYTES = np.arange(8)
_BYTE_SHIFTS = np.arange(0, 64, 8, dtype=np.uint64)


def _byte_tables(columns: np.ndarray) -> np.ndarray:
    """``(..., 8, 256)`` tables of the maps whose bit images are ``columns``.

    ``columns[..., i]`` is the image of bit ``i``; entry ``[..., p, b]`` is
    the image of byte value ``b`` at byte ``p``.  Each bit doubles the
    filled part of a table, so no temporary is larger than the tables.
    """
    bit_images = columns.reshape(columns.shape[:-1] + (8, 8))
    tables = np.zeros(columns.shape[:-1] + (8, 256), dtype=np.uint64)
    for k in range(8):
        half = 1 << k
        np.bitwise_xor(tables[..., :half], bit_images[..., k, None],
                       out=tables[..., half : 2 * half])
    return tables


def _jump(tables: np.ndarray, states: np.ndarray) -> np.ndarray:
    """Apply the tables' maps to a vector of states: one gather per byte, XORed.

    Tables ``(..., 8, 256)`` and states ``(n,)`` give ``(..., n)``.
    """
    index = ((states[:, None] >> _BYTE_SHIFTS) & np.uint64(0xFF)).astype(np.intp)
    return np.bitwise_xor.reduce(tables[..., _BYTES, index], axis=-1)


@lru_cache(maxsize=1)
def _jump_tables() -> np.ndarray:
    """Byte tables of ``M**(64 a)`` for ``a = 1 .. JUMP_BLOCKS``, built on first use."""
    columns = np.uint64(1) << np.arange(64, dtype=np.uint64)
    for _ in range(LANES):  # the recurrence, run on the 64 unit states
        columns ^= columns >> np.uint64(12)
        columns ^= columns << np.uint64(25)
        columns ^= columns >> np.uint64(27)
    first = _byte_tables(columns)          # M**64
    powers = np.empty((JUMP_BLOCKS, 64), dtype=np.uint64)
    powers[0] = columns
    for a in range(1, JUMP_BLOCKS):
        powers[a] = _jump(first, powers[a - 1])
    return _byte_tables(powers)


def xorshift64star_words(seed: int, n_words: int) -> np.ndarray:
    """Return ``n_words`` consecutive 64-bit outputs for the given seed."""
    x = seed & _MASK64
    if x == 0:
        x = 0x9E3779B97F4A7C15  # zero state is absorbing; remap like splitmix
    n_rows = -(-n_words // LANES)
    grid = np.empty((n_rows, LANES), dtype=np.uint64)
    for i in range(min(n_words, LANES)):
        x ^= (x >> 12)
        x ^= (x << 25) & _MASK64
        x ^= (x >> 27)
        grid[0, i] = x
    # rows r+1 .. r+32 from row r; row r+32 is the base of the next span
    for r in range(0, n_rows - 1, JUMP_BLOCKS):
        span = min(JUMP_BLOCKS, n_rows - 1 - r)
        grid[r + 1 : r + 1 + span] = _jump(_jump_tables()[:span], grid[r])
    return grid.reshape(-1)[:n_words] * np.uint64(_MULT)


def bits(seed: int, n_bits: int) -> np.ndarray:
    """Return ``n_bits`` pseudo-random bits in {0, 1} as uint8."""
    n_words = (n_bits + 63) // 64
    words = xorshift64star_words(seed, n_words)
    return np.unpackbits(words.astype(">u8").view(np.uint8), count=n_bits)  # MSByte first
