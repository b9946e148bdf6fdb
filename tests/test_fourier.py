"""Tests for the fixed-size real FFTs and butterfly kernels against the direct DFT oracle."""

import numpy as np
import pytest

from burstrx.errors import FftInputError, FftSizeError
from burstrx.fourier import butterfly_fft, dft_oracle, fft_144, fft_pow2, radix3_butterfly


def rel_err(a, b):
    return np.max(np.abs(a - b)) / max(np.linalg.norm(b), 1e-300)


class TestOracle:
    def test_impulse_128(self):
        x = np.zeros(128, complex)
        x[0] = 1.0
        assert np.allclose(dft_oracle(x), np.ones(128), atol=1e-12)

    def test_tone_orthogonality_144(self):
        n = np.arange(144)
        x = np.exp(2j * np.pi * n * 5 / 144)
        X = dft_oracle(x)
        assert abs(X[5] - 144) < 1e-9
        mask = np.ones(144, bool)
        mask[5] = False
        assert np.max(np.abs(X[mask])) < 1e-9

    def test_round_trip(self):
        rng = np.random.default_rng(3)
        x = rng.normal(size=100) + 1j * rng.normal(size=100)
        assert rel_err(dft_oracle(dft_oracle(x), inverse=True), x) < 1e-12

    def test_rejects_empty(self):
        with pytest.raises(FftSizeError):
            dft_oracle(np.zeros(0, complex))


class TestFftPow2:
    def test_impulse_all_ones(self):
        x = np.zeros(128)
        x[0] = 1.0
        assert np.allclose(fft_pow2(x), np.ones(65), atol=1e-12)

    @pytest.mark.parametrize("n", [8, 128])
    def test_matches_oracle(self, n):
        rng = np.random.default_rng(n)
        worst = 0.0
        for _ in range(50):
            x = rng.normal(size=n)
            want = dft_oracle(x)[: n // 2 + 1]
            worst = max(worst, np.max(np.abs(fft_pow2(x) - want)) / np.linalg.norm(x))
        assert worst <= 1e-9

    def test_tone_bin3_n8(self):
        n = np.arange(8)
        x = np.cos(2 * np.pi * 3 * n / 8)
        X = fft_pow2(x)
        assert X.shape == (5,)
        assert abs(X[3] - 4) < 1e-12
        assert np.sum(np.abs(X) > 1e-9) == 1

    def test_rejects_non_pow2(self):
        with pytest.raises(FftSizeError):
            fft_pow2(np.zeros(96))
        with pytest.raises(FftSizeError):
            fft_pow2(np.zeros(64, complex), inverse=True)  # 126 samples

    def test_batch_axis(self):
        rng = np.random.default_rng(9)
        x = rng.normal(size=(5, 128))
        batch = fft_pow2(x)
        for i in range(5):
            assert np.allclose(batch[i], fft_pow2(x[i]), atol=1e-12)


class TestFft144:
    def test_impulse(self):
        x = np.zeros(144)
        x[0] = 1.0
        assert np.allclose(fft_144(x), np.ones(73), atol=1e-12)

    def test_matches_oracle(self):
        rng = np.random.default_rng(144)
        worst = 0.0
        for _ in range(50):
            x = rng.normal(size=144)
            want = dft_oracle(x)[:73]
            worst = max(worst, np.max(np.abs(fft_144(x) - want)) / np.linalg.norm(x))
        assert worst <= 1e-9

    def test_hermitian_for_real_input(self):
        # the half spectrum holds the whole spectrum of real samples: the
        # oracle's bins 73..143 are the conjugates of bins 71..1
        rng = np.random.default_rng(7)
        x = rng.normal(size=144)
        X = fft_144(x)
        full = dft_oracle(x)
        k = np.arange(1, 72)
        assert np.max(np.abs(full[144 - k] - np.conj(X[k]))) < 1e-9 * np.linalg.norm(x)
        assert abs(X[0].imag) < 1e-9 * np.linalg.norm(x)
        assert abs(X[72].imag) < 1e-9 * np.linalg.norm(x)

    def test_rejects_wrong_length(self):
        with pytest.raises(FftSizeError):
            fft_144(np.zeros(128))
        with pytest.raises(FftSizeError):
            fft_144(np.zeros(144, complex), inverse=True)  # 286 samples


@pytest.mark.parametrize("fft, n", [(fft_pow2, 128), (fft_144, 144)])
def test_forward_rejects_complex(fft, n):
    # the real transform would drop the imaginary part with a warning
    with pytest.raises(FftInputError):
        fft(np.zeros(n, complex))
    with pytest.raises(FftInputError):
        fft(np.ones((3, n)) + 0j)


class TestOut:
    def test_forward_into_a_wider_stack(self):
        # the transmitter's use: 65 bins written into bins 0..64 of 73
        x = np.random.default_rng(10).normal(size=(6, 128))
        stack = np.zeros((6, 73), complex)
        buf = stack[:, :65]
        assert fft_pow2(x, out=buf) is buf
        assert np.array_equal(stack[:, :65], fft_pow2(x))
        assert not stack[:, 65:].any()

    def test_inverse(self):
        X = fft_pow2(np.random.default_rng(11).normal(size=(3, 128)))
        buf = np.empty((3, 128))
        assert fft_pow2(X, inverse=True, out=buf) is buf
        assert np.array_equal(buf, fft_pow2(X, inverse=True))

    @pytest.mark.parametrize("x, inverse, error", [
        (np.ones(96), False, FftSizeError),
        (np.ones(128, complex), False, FftInputError),
        (np.ones(64, complex), True, FftSizeError),
    ], ids=["size", "complex", "inverse_size"])
    def test_checked_before_writing(self, x, inverse, error):
        buf = np.full(65 if not inverse else 126, 7.0, dtype=complex if not inverse else float)
        with pytest.raises(error):
            fft_pow2(x, inverse=inverse, out=buf)
        assert np.all(buf == 7.0)


class TestButterflyReference:
    @pytest.mark.parametrize("n", [8, 128, 144])
    def test_matches_oracle(self, n):
        rng = np.random.default_rng(n + 10)
        x = rng.normal(size=(50, n)) + 1j * rng.normal(size=(50, n))
        for inverse in (False, True):
            got = butterfly_fft(x, inverse=inverse)
            want = dft_oracle(x, inverse=inverse)
            assert np.max(np.abs(got - want)) <= 1e-12 * np.max(np.abs(want))

    @pytest.mark.parametrize("n,fft", [(8, fft_pow2), (128, fft_pow2), (144, fft_144)])
    @pytest.mark.parametrize("inverse", [False, True], ids=["forward", "inverse"])
    def test_matches_backend(self, n, fft, inverse):
        # forward: the first n/2 + 1 butterfly bins of real samples; inverse:
        # the real samples of the Hermitian spectrum those bins stand for
        rng = np.random.default_rng(n + 20)
        x = rng.normal(size=(5, n))
        full = butterfly_fft(x)
        if inverse:
            got, ref = fft(full[:, : n // 2 + 1], inverse=True), butterfly_fft(full, inverse=True)
            assert np.max(np.abs(ref.imag)) <= 1e-12 * np.max(np.abs(ref))
            ref = ref.real
        else:
            got, ref = fft(x), full[:, : n // 2 + 1]
        assert np.max(np.abs(got - ref)) <= 1e-12 * np.max(np.abs(ref))

    @pytest.mark.parametrize("n", [1, 96, 145])
    def test_rejects_other_sizes(self, n):
        with pytest.raises(FftSizeError):
            butterfly_fft(np.zeros(n, complex))


class TestRadix3Butterfly:
    def test_constant_input(self):
        x0, x1, x2 = radix3_butterfly(1.0, 1.0, 1.0, 1.0, 1.0)
        assert np.allclose([x0, x1, x2], [3.0, 0.0, 0.0], atol=1e-12)

    def test_delta(self):
        x0, x1, x2 = radix3_butterfly(1.0, 0.0, 0.0, 1.0, 1.0)
        assert np.allclose([x0, x1, x2], [1.0, 1.0, 1.0], atol=1e-12)

    def test_random_matches_3pt_oracle(self):
        rng = np.random.default_rng(33)
        for _ in range(20):
            a, b, c = rng.normal(size=3) + 1j * rng.normal(size=3)
            got = np.array(radix3_butterfly(a, b, c, 1.0, 1.0))
            want = dft_oracle(np.array([a, b, c]))
            assert np.max(np.abs(got - want)) < 1e-12


class TestProperties:
    @pytest.mark.parametrize("n,fft", [(128, fft_pow2), (144, fft_144)])
    def test_parseval(self, n, fft):
        # bins 1..n/2-1 stand for themselves and their mirrors
        rng = np.random.default_rng(n + 1)
        x = rng.normal(size=n)
        weight = np.r_[1.0, np.full(n // 2 - 1, 2.0), 1.0]
        lhs = np.sum(x**2)
        rhs = np.sum(weight * np.abs(fft(x)) ** 2) / n
        assert abs(lhs - rhs) <= 1e-9 * lhs

    @pytest.mark.parametrize("n,fft", [(128, fft_pow2), (144, fft_144)])
    def test_linearity(self, n, fft):
        rng = np.random.default_rng(n + 2)
        x = rng.normal(size=n)
        y = rng.normal(size=n)
        a, b = 1.7, -0.8
        lhs = fft(a * x + b * y)
        rhs = a * fft(x) + b * fft(y)
        assert rel_err(lhs, rhs) < 1e-9

    @pytest.mark.parametrize("n,fft", [(8, fft_pow2), (128, fft_pow2), (144, fft_144)])
    def test_round_trip_batch(self, n, fft):
        rng = np.random.default_rng(n + 3)
        x = rng.normal(size=(1000, n))
        back = fft(fft(x), inverse=True)
        assert back.dtype == np.float64
        assert np.max(np.abs(back - x)) <= 1e-10 * np.max(np.abs(x))
