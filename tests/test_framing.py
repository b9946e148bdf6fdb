"""Frame layout, preamble generators, and assembly tests."""

import numpy as np
import pytest

from burstrx import framing
from burstrx.errors import LayoutError, PayloadError
from burstrx.fourier import dft_oracle


def paper_layout(payload_len=0):
    return framing.FrameLayout(payload_len=payload_len)


class TestLayout:
    def test_paper_mode_totals(self):
        lay = paper_layout(130_000)
        assert lay.preamble_len == 1056
        assert lay.total_len == 131_056

    def test_preamble_duration(self):
        assert abs(paper_layout().preamble_duration_ns(25.0) - 42.24) < 1e-12

    def test_bad_lengths_rejected(self):
        with pytest.raises(LayoutError):
            framing.FrameLayout(preamble_a_len=191)
        with pytest.raises(LayoutError):
            framing.FrameLayout(preamble_b_len=95)
        with pytest.raises(LayoutError):
            framing.FrameLayout(preamble_c_len=700)


class TestPreambleA:
    def test_first_symbols(self):
        a = framing.gen_preamble_a(paper_layout())
        assert list(a[:4]) == [0, 1, 0, 1]
        assert len(a) == 192

    def test_single_period(self):
        lay = framing.FrameLayout(preamble_a_len=2, payload_len=0)
        assert list(framing.gen_preamble_a(lay)) == [0, 1]

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
        pn = framing.pn_sequence(paper_layout().pn_seed)
        assert np.dot(pn, pn) == 32.0

    def test_default_seed_peak_uniqueness(self):
        # Sync metric peak must dominate every other placement by >= 2x.
        ratio = framing.validate_pn_seed(paper_layout().pn_seed, min_ratio=2.0)
        assert ratio >= 2.0

    @pytest.mark.parametrize(
        "seed, ratio",
        [(0x5EED0001, 2.909090909090909), (0x3, 2.6666666666666665),
         (0x1234, 2.4615384615384617)],
    )
    def test_seed_ratio_values(self, seed, ratio):
        assert framing.validate_pn_seed(seed) == ratio

    def test_bad_seed_rejected(self):
        with pytest.raises(LayoutError):
            framing.validate_pn_seed(4)

    def test_preamble_a_uncorrelated_with_pn(self):
        lay = paper_layout()
        a_bip = 2 * framing.gen_preamble_a(lay) - 1
        pn = framing.pn_sequence(lay.pn_seed)
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
        # exact value frozen for the default preamble_c_seed
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

    def test_symbols_binary(self):
        lay = paper_layout(96)
        frame = framing.build_frame(lay, framing.gen_payload_bits(lay, seed=2))
        assert set(np.unique(frame)) <= {0.0, 1.0}
