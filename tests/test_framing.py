"""Frame layout, preamble generators, and assembly tests."""

import numpy as np
import pytest

from burstrx import channel, framesync, framing
from burstrx.errors import LayoutError, PayloadError
from burstrx.fourier import dft_oracle


def paper_layout(payload_len=0):
    return framing.FrameLayout(payload_len=payload_len)


class TestLayout:
    def test_paper_mode_totals(self):
        # the paper's preamble: 192 + 96 + 768 = 1 056 symbols
        lay = paper_layout(130_000)
        assert (lay.preamble_a_len, lay.preamble_b_len, lay.preamble_c_len) == (192, 96, 768)
        assert len(framing.fixed_preamble(lay)) == 1056

    def test_preamble_duration(self):
        # the paper's airtime: 1 056 symbols at the channel's 25 GBd
        airtime_ns = len(framing.fixed_preamble(paper_layout())) / channel.BAUD_HZ * 1e9
        assert abs(airtime_ns - 42.24) < 1e-12

    def test_bad_lengths_rejected(self):
        with pytest.raises(LayoutError):
            framing.FrameLayout(preamble_a_len=191)
        with pytest.raises(LayoutError):
            framing.FrameLayout(preamble_a_len=126)
        with pytest.raises(LayoutError):
            framing.FrameLayout(preamble_c_len=700)
        with pytest.raises(LayoutError):
            framing.FrameLayout(payload_len=-1)


class TestPreambleA:
    def test_first_symbols(self):
        a = framing.gen_preamble_a(paper_layout())
        assert list(a[:4]) == [0, 1, 0, 1]
        assert len(a) == 192

    def test_shortest(self):
        lay = framing.FrameLayout(preamble_a_len=128, payload_len=0)
        assert list(framing.gen_preamble_a(lay)) == [0, 1] * 64

    def test_spectrum_single_tone(self):
        # 128-symbol window, mean removed: all energy in bin 64 (and none at DC).
        a = framing.gen_preamble_a(paper_layout())[:128]
        X = dft_oracle(a - a.mean())
        mags = np.abs(X)
        keep = mags > 1e-9
        assert keep[64]
        assert np.count_nonzero(keep) == 1


class TestPreambleB:
    def test_structure(self):
        lay = paper_layout()
        b = framing.gen_preamble_b(lay)
        assert len(b) == 96
        bip = 2 * b - 1
        assert np.array_equal(bip[64:], -bip[:32])
        assert np.array_equal(b[:32], b[32:64])

    def test_pn_autocorrelation_peak(self):
        pn = 2 * framing.gen_preamble_b(paper_layout())[: framing.PN_LEN] - 1
        assert np.dot(pn, pn) == 32.0

    def test_default_seed_peak_uniqueness(self):
        # the sync metric over the clean bipolar Preamble B, flanked by
        # silence: the true peak dominates every other placement
        pn = 2 * framing.gen_preamble_b(framing.FrameLayout())[: framing.PN_LEN] - 1
        guard = np.zeros(96)
        metric = framesync.metric_stream(np.concatenate([guard, pn, pn, -pn, guard]), pn)
        peak_pos = int(np.argmax(metric))
        rest = np.abs(np.delete(metric, peak_pos))
        assert metric[peak_pos] / rest.max() == 32 / 11

    def test_preamble_a_uncorrelated_with_pn(self):
        lay = paper_layout()
        a_bip = 2 * framing.gen_preamble_a(lay) - 1
        pn = 2 * framing.gen_preamble_b(lay)[: framing.PN_LEN] - 1
        corr = np.correlate(a_bip, pn, mode="valid")
        assert np.max(np.abs(corr)) < 32 / 2


class TestPreambleC:
    def test_beats(self):
        c = framing.gen_preamble_c(paper_layout())
        assert len(c) == 768
        assert len(c) % 96 == 0

    def test_deterministic(self):
        lay = paper_layout()
        assert np.array_equal(framing.gen_preamble_c(lay), framing.gen_preamble_c(lay))

    def test_mean_balanced(self):
        c = framing.gen_preamble_c(paper_layout())
        mean = c.mean()
        assert 0.4 <= mean <= 0.6
        # exact value frozen for the fixed Preamble C
        assert abs(mean - 0.5013020833333334) < 1e-15


class TestBuildFrame:
    def test_paper_total(self):
        lay = paper_layout(130_000)
        bits = framing.gen_payload_bits(lay, seed=1)
        frame = framing.build_frame(lay, bits)
        assert len(frame) == 131_056

    def test_preamble_only(self):
        frame = framing.build_frame(paper_layout(0), np.array([], dtype=np.uint8))
        assert len(frame) == 1056

    def test_length_mismatch(self):
        with pytest.raises(PayloadError):
            framing.build_frame(paper_layout(10), np.zeros(9, dtype=np.uint8))

    def test_region_extraction_round_trip(self):
        lay = paper_layout(192)
        bits = framing.gen_payload_bits(lay, seed=5)
        a, b, c = lay.preamble_a_len, lay.preamble_b_len, lay.preamble_c_len
        s = framing.build_frame(lay, bits)
        assert np.array_equal(s[:a], framing.gen_preamble_a(lay))
        assert np.array_equal(s[a : a + b], framing.gen_preamble_b(lay))
        assert np.array_equal(s[a + b : a + b + c], framing.gen_preamble_c(lay))
        assert np.array_equal(s[a + b + c :], bits.astype(float))

    def test_fresh_writable_frame(self):
        lay = paper_layout(96)
        bits = framing.gen_payload_bits(lay, seed=2)
        first = framing.build_frame(lay, bits)
        expected = first.copy()
        assert first.flags.writeable and first.flags.owndata
        first[:] = -1.0
        assert np.array_equal(framing.build_frame(lay, bits), expected)
        assert np.array_equal(framing.fixed_preamble(lay), expected[:-96])

    def test_fixed_preamble_read_only(self):
        head = framing.fixed_preamble(paper_layout())
        assert not head.flags.writeable
        with pytest.raises(ValueError):
            head[0] = 2.0
        lay = paper_layout(0)
        expected = np.concatenate(
            [framing.gen_preamble_a(lay), framing.gen_preamble_b(lay), framing.gen_preamble_c(lay)]
        )
        assert np.array_equal(head, expected)

    def test_symbols_binary(self):
        lay = paper_layout(96)
        frame = framing.build_frame(lay, framing.gen_payload_bits(lay, seed=2))
        assert set(np.unique(frame)) <= {0.0, 1.0}
