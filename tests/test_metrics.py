"""Metrics tests: BER counting, error distribution, MSE, report round trip."""

import numpy as np
import pytest

from burstrx import metrics
from burstrx.errors import AlignmentError
from burstrx.fourier import fft_pow2


class TestCountBer:
    def test_identical(self):
        bits = np.random.default_rng(0).integers(0, 2, 1000)
        res = metrics.count_ber(bits, bits)
        assert (res.errors, res.total) == (0, 1000)
        assert len(res.positions) == 0

    def test_single_flip(self):
        ref = np.zeros(100, dtype=np.uint8)
        dec = ref.copy()
        dec[7] = 1
        res = metrics.count_ber(dec, ref)
        assert res.errors == 1
        assert list(res.positions) == [7]

    def test_mismatch_raises(self):
        with pytest.raises(AlignmentError):
            metrics.count_ber(np.zeros(5), np.zeros(6))


class TestErrorDistribution:
    def test_zero_errors_skipped(self):
        h = metrics.error_distribution(np.array([], dtype=int), 1000)
        assert not h.counts.any()
        assert h.chi2_stat is None and h.p_value is None

    def test_uniform_synthetic(self):
        rng = np.random.default_rng(1)
        pos = rng.integers(0, 10_000, 800)
        h = metrics.error_distribution(pos, 10_000)
        assert h.p_value > 0.05

    def test_first_decile_concentration_rejected(self):
        pos = np.arange(0, 500)  # all errors in the first decile
        h = metrics.error_distribution(pos, 5000)
        assert h.p_value < 1e-6

    def test_histogram_sums_to_errors(self):
        pos = np.array([0, 1, 4999])
        h = metrics.error_distribution(pos, 5000)
        assert h.counts.sum() == 3


class TestMsePoint:
    def test_equal_is_zero(self):
        z = np.ones(128, complex)
        assert metrics.mse_point(z, z) == 0.0

    def test_constant_offset(self):
        # an impulse at n = 0 is a constant 0.3 - 0.4j offset on every bin
        z = np.zeros(128, complex)
        d = np.zeros(128, complex)
        d[0] = 0.3 - 0.4j
        assert metrics.mse_point(z, d) == pytest.approx(0.25)

    def test_equals_spectral_mean_by_parseval(self):
        rng = np.random.default_rng(13)
        z = rng.normal(size=128) + 1j * rng.normal(size=128)
        d = rng.integers(0, 2, 128).astype(np.float64)
        D = fft_pow2(d.astype(complex))
        spectral = float(np.mean(np.abs(fft_pow2(z) - D) ** 2))
        assert metrics.mse_point(z, d) == pytest.approx(spectral, rel=1e-12)


class TestRunReport:
    def test_json_round_trip_and_determinism(self):
        rep = metrics.RunReport(
            ber=1e-3, bit_errors=10, bits_total=10_000,
            spo_trace=[(1, 0, 0.001), (2, 5, -0.002)],
            mse_trace=[0.5, 0.1], error_histogram=[1, 2, 3],
            seed=7, config={"snr_db": 12.0},
        )
        text1 = rep.to_json()
        text2 = rep.to_json()
        assert text1 == text2
        back = metrics.RunReport.from_json(text1)
        assert back.ber == rep.ber
        assert back.spo_trace == [[1, 0, 0.001], [2, 5, -0.002]]


class TestWilson:
    def test_contains_point_estimate(self):
        lo, hi = metrics.wilson_interval(10, 1000)
        assert lo < 0.01 < hi

    def test_zero_total(self):
        assert metrics.wilson_interval(0, 0) == (0.0, 1.0)
