"""Metrics tests: BER counting, error distribution, MSE, report round trip."""

import dataclasses
import json
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from burstrx import metrics
from burstrx.equalizer import decide_demap
from burstrx.errors import AlignmentError


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

    @pytest.mark.parametrize("dtype", [np.uint8, bool, np.float64])
    @pytest.mark.parametrize("n_bits", [1920, 30_000])
    def test_equals_copying_count(self, dtype, n_bits):
        # the count on the caller's arrays equals the one on uint8 copies
        rng = np.random.default_rng(n_bits)
        ref = rng.integers(0, 2, n_bits).astype(dtype)
        dec = ref.copy()
        flips = rng.choice(n_bits, 90, replace=False)
        dec[flips] = 1 - dec[flips]
        res = metrics.count_ber(dec, ref)
        copied_diff = dec.astype(np.uint8) != ref.astype(np.uint8)
        assert type(res.errors) is int and type(res.total) is int
        assert (res.errors, res.total) == (int(copied_diff.sum()), n_bits) == (90, n_bits)
        assert np.array_equal(res.positions, np.flatnonzero(copied_diff))
        assert np.array_equal(res.positions, np.sort(flips))

    def test_mismatch_raises(self):
        with pytest.raises(AlignmentError):
            metrics.count_ber(np.zeros(5), np.zeros(6))


class TestErrorDistribution:
    def test_zero_errors_skipped(self):
        # an error-free burst gets the counts that the decile count gives an
        # empty position list, in shape and dtype too, and no test
        edges = np.linspace(0, 1000, metrics.ERROR_BINS + 1)
        want = np.bincount(np.searchsorted(edges, [], "right") - 1, minlength=metrics.ERROR_BINS)
        for positions in (np.array([], dtype=int), []):
            h = metrics.error_distribution(positions, 1000)
            assert not h.counts.any()
            assert (h.counts.shape, h.counts.dtype) == (want.shape, want.dtype)
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

    @pytest.mark.parametrize("frame_len", [1920, 1921, 29_999, 130_000])
    def test_counts_equal_histogram(self, frame_len):
        # the decile counts are np.histogram's on the same edges, with
        # positions on and beside every edge
        edges = np.linspace(0, frame_len, 11)
        near = np.concatenate([np.floor(edges) + d for d in (-1, 0, 1)] + [np.ceil(edges)])
        rng = np.random.default_rng(frame_len)
        pos = np.concatenate([near, rng.integers(0, frame_len, 500)]).astype(np.int64)
        pos = np.sort(pos[(pos >= 0) & (pos < frame_len)])
        want, _ = np.histogram(pos, edges)
        assert np.array_equal(metrics.error_distribution(pos, frame_len).counts, want)

    def test_histogram_sums_to_errors(self):
        pos = np.array([0, 1, 4999])
        h = metrics.error_distribution(pos, 5000)
        assert h.counts.sum() == 3



class TestChi2UpperTail:
    def test_matches_scipy(self):
        chdtrc = pytest.importorskip("scipy.special").chdtrc
        xs = np.concatenate([np.geomspace(1e-8, 1.0, 40), np.linspace(0.1, 200.0, 400)])
        worst = 0.0
        for k in range(1, 31):
            for x in xs:
                ref = chdtrc(k, x)
                worst = max(worst, abs(metrics.chi2_upper_tail(k, float(x)) - ref) / ref)
        assert worst <= 1e-12

    @pytest.mark.parametrize("k", [1, 2, 9])
    def test_nonpositive_statistic_is_certain(self, k):
        assert metrics.chi2_upper_tail(k, 0.0) == 1.0
        assert metrics.chi2_upper_tail(k, -1.0) == 1.0

    def test_zero_degrees_rejected(self):
        with pytest.raises(ValueError):
            metrics.chi2_upper_tail(0, 1.0)

    def test_receiver_import_loads_no_scipy(self):
        src = Path(metrics.__file__).resolve().parent.parent
        code = (
            f"import sys; sys.path.insert(0, {str(src)!r}); "
            "import burstrx.receiver, burstrx.config; "
            "print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))"
        )
        out = subprocess.run(
            [sys.executable, "-c", code], capture_output=True, text=True, check=True
        )
        assert out.stdout.strip() == "[]"


class TestMsePoint:
    def test_equal_is_zero(self):
        z = np.ones(128)
        assert metrics.mse_point(z, z) == 0.0

    def test_constant_offset(self):
        # an impulse of 0.5 at n = 0 is a constant 0.5 offset on every bin
        z = np.zeros(128)
        d = np.zeros(128)
        d[0] = 0.5
        assert metrics.mse_point(z, d) == pytest.approx(0.25)

    def test_equals_spectral_mean_by_parseval(self):
        rng = np.random.default_rng(13)
        z = rng.normal(size=128)
        d = rng.integers(0, 2, 128).astype(np.float64)
        spectral = float(np.mean(np.abs(np.fft.fft(z) - np.fft.fft(d)) ** 2))
        assert metrics.mse_point(z, d) == pytest.approx(spectral, rel=1e-12)

    def test_fortran_stack_sums_as_c(self):
        # a payload-sized stack: each row sums in the same order whatever the
        # layout, so a Fortran copy gives the C result bit for bit
        z = np.random.default_rng(5).normal(0.5, 0.4, size=(1354, 96))
        zf = np.asfortranarray(z)
        want = metrics.mse_point(z, decide_demap(z))
        assert np.array_equal(metrics.mse_point(zf, decide_demap(zf)), want)


class TestRunReport:
    def test_json_round_trip_and_determinism(self):
        rep = metrics.RunReport(
            ber=1e-3, bit_errors=10, bits_total=10_000,
            spo_trace=[0.001, np.float64(-0.002)],
            mse_trace=[0.5, 0.1], error_histogram=[1, 2, 3],
        )
        # a report serializes as json.dumps(dataclasses.asdict(report))
        text1 = json.dumps(dataclasses.asdict(rep), sort_keys=True)
        text2 = json.dumps(dataclasses.asdict(rep), sort_keys=True)
        assert text1 == text2
        back = json.loads(text1)
        assert back == dataclasses.asdict(rep)
        assert back["spo_trace"] == [0.001, -0.002]
        assert back["schema_version"] == 4


class TestWilson:
    def test_contains_point_estimate(self):
        lo, hi = metrics.wilson_interval(10, 1000)
        assert lo < 0.01 < hi

    def test_zero_total(self):
        assert metrics.wilson_interval(0, 0) == (0.0, 1.0)
