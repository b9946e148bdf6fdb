"""Seeded bit generator tests."""

import numpy as np
import pytest

from burstrx import config, prng
from burstrx.framing import FrameLayout
from burstrx.receiver import BurstReceiver


def test_zero_seed_remapped():
    # the all-zero xorshift state is absorbing, so seed 0, and any seed that
    # is 0 mod 2**64, starts from the fixed nonzero state instead
    bits = prng.bits(0, 256)
    assert np.array_equal(bits, prng.bits(0x9E3779B97F4A7C15, 256))
    assert np.array_equal(bits, prng.bits(1 << 64, 256))
    assert 0 < np.count_nonzero(bits) < 256


_MASK64 = (1 << 64) - 1


def reference_words(seed, n_words):
    """The documented xorshift64* recurrence, one state at a time."""
    x = seed & _MASK64 or 0x9E3779B97F4A7C15
    out = []
    for _ in range(n_words):
        x ^= x >> 12
        x ^= (x << 25) & _MASK64
        x ^= x >> 27
        out.append((x * 2685821657736338717) & _MASK64)
    return np.array(out, dtype=np.uint64)


# past the states one table set reaches, so the jump to a second set runs
PAST_TABLES = 2 * prng.LANES * prng.JUMP_BLOCKS + 5


@pytest.mark.parametrize("n_words", [0, 1, 63, 64, 65, 2032, PAST_TABLES])
@pytest.mark.parametrize(
    "seed", [0, 1, 12345, 2**63 + 5, 1 << 64, FrameLayout.pn_seed, FrameLayout.preamble_c_seed]
)
def test_words_match_recurrence(seed, n_words):
    got = prng.xorshift64star_words(seed, n_words)
    assert got.dtype == np.uint64 and got.shape == (n_words,)
    assert np.array_equal(got, reference_words(seed, n_words))


def test_first_words_pinned():
    # the cross-language promise: these are the first outputs of seed 1
    words = [int(w) for w in prng.xorshift64star_words(1, 4)]
    assert words == [0x47E4CE4B896CDD1D, 0xABCFA6A8E079651D, 0xB9D10D8FEB731F57, 0x4DB418A0BB1B019D]
    assert list(prng.bits(1, 8)) == [0, 1, 0, 0, 0, 1, 1, 1]  # 0x47, MSB first


def test_receiver_setup_builds_no_jump_tables():
    prng._jump_tables.cache_clear()
    BurstReceiver(config.from_dict({}))
    assert prng._jump_tables.cache_info().currsize == 0
    prng.xorshift64star_words(1, prng.LANES + 1)
    assert prng._jump_tables.cache_info().currsize == 1


@pytest.mark.parametrize("n_bits", [0, 1, 7, 63, 64, 65, 1920, 130_000])
@pytest.mark.parametrize("seed", [1, 0x5EED0001])
def test_bits_equal_bytewise_unpack(seed, n_bits):
    # each word's eight bytes, most significant first, unpacked MSB first
    words = prng.xorshift64star_words(seed, (n_bits + 63) // 64)
    octets = words.astype(">u8").view(np.uint8).reshape(-1, 8)
    want = np.unpackbits(octets, axis=1).reshape(-1)[:n_bits]
    got = prng.bits(seed, n_bits)
    assert got.dtype == np.uint8 and np.array_equal(got, want)
