"""Timing-recovery tests: detector S-curve, loop filter, interpolator, closed loop."""

import numpy as np
import pytest

from burstrx import timing, txchain
from burstrx.fourier import fft_144
from burstrx.timing import FdtrLoop, fd_interpolate, godard_error


def shaped_block(symbols128):
    """144-bin spectrum of one isolated block after tx and rx RRC."""
    h = txchain.rrc_response()
    X = txchain.resample_up_fd(np.fft.fft(np.asarray(symbols128, complex)))
    return X * h * h


def raw_error(X):
    """Im of the summed pair products: the detector error before normalizing."""
    sums, _ = godard_error(X)
    return sums.sum(axis=-1).imag


class TestGodardBand:
    def test_integerized_bounds(self):
        band = timing.godard_band(alpha=0.1)
        assert band[0] == 58 and band[-1] == 69
        assert len(band) == 12


class TestGodardError:
    def test_zero_input(self):
        assert godard_error(np.zeros(144, complex)) == (0.0, 0.0)

    def test_zero_at_perfect_timing(self):
        rng = np.random.default_rng(2)
        x = rng.integers(0, 2, 128).astype(float)
        X = shaped_block(x)
        e, mag = raw_error(X), godard_error(X)[1]
        k = timing.godard_band()
        assert mag == pytest.approx(np.sum(np.abs(X[k] * np.conj(X[k + 16]))))
        assert abs(e) <= 1e-3 * mag

    def test_sign_consistent_for_small_delay(self):
        rng = np.random.default_rng(3)
        signs = []
        for _ in range(100):
            x = rng.integers(0, 2, 128).astype(float)
            X = fd_interpolate(shaped_block(x), 0.05 * txchain.SPS)
            signs.append(np.sign(raw_error(X)))
        assert len(set(signs)) == 1

    def test_pair_freqs(self):
        # bin 56 (in the band at roll-off 0.125 only) pairs with the Nyquist bin
        assert np.allclose(timing.godard_pair_freqs(0.1), [8 / 9])
        assert np.allclose(timing.godard_pair_freqs(0.125), [-1 / 9, 8 / 9])

    @pytest.mark.parametrize("alpha", [0.1, 0.125])
    def test_rotated_sums_equal_corrected_detector(self, alpha):
        # the error of X corrected by tau, from the sums of the uncorrected X
        rng = np.random.default_rng(8)
        X = rng.normal(size=(6, 144)) + 1j * rng.normal(size=(6, 144))
        tau = rng.uniform(-0.6, 0.6, size=(6, 1))
        sums, mag = godard_error(X, alpha)
        rotation = np.exp(-2j * np.pi * timing.godard_pair_freqs(alpha) * tau)
        direct, direct_mag = godard_error(fd_interpolate(X, tau), alpha)
        assert np.allclose((sums * rotation).sum(axis=-1).imag, direct.sum(axis=-1).imag,
                           rtol=1e-12, atol=0)
        assert np.allclose(mag, direct_mag, rtol=1e-12, atol=0)

    def test_s_curve_odd_and_zero_crossing(self):
        rng = np.random.default_rng(4)
        x = rng.integers(0, 2, 128).astype(float)
        X0 = shaped_block(x)
        offsets = np.linspace(-0.5, 0.5, 21)
        curve = np.array(
            [raw_error(fd_interpolate(X0, d * txchain.SPS)) for d in offsets]
        )
        # odd symmetry and a zero crossing at the origin
        assert np.max(np.abs(curve + curve[::-1])) <= 1e-6 * np.max(np.abs(curve))
        assert abs(curve[10]) <= 1e-9 * np.max(np.abs(curve))
        # monotone (decreasing) through the origin for this sign convention
        mid = curve[8:13]
        assert np.all(np.diff(mid) < 0)


def tau_step(loop, e):
    """How far one loop-filter update moves tau."""
    before = loop.tau
    loop.update(e)
    return loop.tau - before


class TestLoopFilter:
    def test_pure_proportional(self):
        loop = FdtrLoop(kp=0.5, ki=0.0)
        assert tau_step(loop, 0.2) == pytest.approx(0.1)

    def test_constant_error_series(self):
        loop = FdtrLoop(kp=2.0, ki=0.1)
        e = 0.3
        for n in range(1, 6):
            W = tau_step(loop, e)
            assert W == pytest.approx(2.0 * e + 0.1 * n * e)

    def test_zero_error_holds_accumulator(self):
        loop = FdtrLoop(kp=1.0, ki=0.5, integral=2.0)
        for _ in range(3):
            assert tau_step(loop, 0.0) == pytest.approx(1.0)


class TestInterpolator:
    def test_identity(self):
        rng = np.random.default_rng(1)
        X = rng.normal(size=144) + 1j * rng.normal(size=144)
        assert np.array_equal(fd_interpolate(X, 0.0), X)

    def test_mirrored_half_equals_full_exponential(self):
        # bins 73..143 are conjugated from bins 71..1; the result is the
        # full 144-bin exponential bit for bit
        def full(X, tau):
            k = np.arange(144)
            f = np.where(k <= 72, k / 128, (k - 144) / 128) / 1.125
            return X * np.exp(-2j * np.pi * f * np.asarray(tau))

        rng = np.random.default_rng(4)
        X = rng.normal(size=(500, 144)) + 1j * rng.normal(size=(500, 144))
        taus = rng.uniform(-200.0, 200.0, size=(500, 1))
        assert np.array_equal(fd_interpolate(X, taus), full(X, taus))
        for tau in taus[:50, 0]:
            assert np.array_equal(fd_interpolate(X[0], tau), full(X[0], tau))
            assert np.array_equal(fd_interpolate(X[:4], tau), full(X[:4], tau))

    def test_integer_delay_is_circular_shift(self):
        rng = np.random.default_rng(2)
        x = rng.normal(size=144) + 1j * rng.normal(size=144)
        X = fft_144(x)
        y = fft_144(fd_interpolate(X, 3.0), inverse=True)
        assert np.max(np.abs(y - np.roll(x, 3))) <= 1e-10 * np.max(np.abs(x))

    def test_inverse_pair_with_channel_delay(self):
        # fd_interpolate(tau) cancels apply_fractional_delay(-tau) on a
        # band-limited block
        from burstrx import channel

        rng = np.random.default_rng(3)
        x = rng.integers(0, 2, 128).astype(float)
        wave = txchain.tx_frame(np.concatenate([x, np.zeros(96 - 32)]), flush_beats=2)
        tau = 0.37
        delayed = channel.apply_fractional_delay(wave, -tau)
        rot = np.exp(-2j * np.pi * np.fft.rfftfreq(len(wave)) * tau)
        rot[-1] = 1.0  # match the channel's real-signal Nyquist convention
        W1 = np.fft.rfft(delayed) * rot
        assert np.max(np.abs(np.fft.irfft(W1, len(wave)) - wave)) < 1e-9


class TestClosedLoop:
    def run_loop(self, offset_ui, init, n_beats=200, kp=1e-2, ki=1e-4):
        rng = np.random.default_rng(42)
        loop = FdtrLoop(kp=kp, ki=ki)
        target = -offset_ui * txchain.SPS
        if init:
            loop.tau = target
        for _ in range(n_beats):
            x = rng.integers(0, 2, 128).astype(float)
            X = fd_interpolate(shaped_block(x), offset_ui * txchain.SPS)
            loop.process_beat(X)
        return np.array(loop.trace), target

    def test_with_init_flat(self):
        trace, target = self.run_loop(0.3, init=True)
        resid_ui = np.abs(trace - target) / txchain.SPS
        assert np.all(resid_ui <= 0.02)

    def test_integral_action_converges(self):
        trace, target = self.run_loop(0.3, init=False, n_beats=200, ki=1e-3)
        resid_ui = np.abs(trace - target) / txchain.SPS
        assert resid_ui[-1] <= 1e-3
        # and convergence took longer than with init (which starts converged)
        assert np.argmax(resid_ui < 0.02) > 0

    def test_causality(self):
        # the corrected spectrum for beat n uses tau from beats < n only:
        # feeding a huge error on the last beat must not change its own output
        loop_a = FdtrLoop()
        loop_b = FdtrLoop()
        rng = np.random.default_rng(5)
        x = rng.integers(0, 2, 128).astype(float)
        X = shaped_block(x)
        for loop in (loop_a, loop_b):
            loop.process_beat(X)
        out_a = loop_a.process_beat(X)
        out_b = loop_b.process_beat(X * 50)  # scaled: same normalized error path
        assert np.allclose(out_a, out_b / 50)


    @pytest.mark.parametrize("alpha", [0.1, 0.125])
    def test_stack_equals_row_calls(self, alpha):
        rng = np.random.default_rng(7)
        X = np.array([
            fd_interpolate(shaped_block(rng.integers(0, 2, 128).astype(float)), 0.2)
            for _ in range(40)
        ])
        stacked = FdtrLoop(alpha=alpha, tau=0.1)
        by_row = FdtrLoop(alpha=alpha, tau=0.1)
        out = stacked.process_beat(X)
        rows = np.concatenate([by_row.process_beat(X[m : m + 1]) for m in range(len(X))])
        # numpy sums the rows of a stack in another order than a single row,
        # so the two agree to rounding, not bit for bit
        taus = np.array(by_row.trace)
        assert np.max(np.abs(np.array(stacked.trace) - taus)) <= 1e-12 * np.max(np.abs(taus))
        assert np.max(np.abs(out - rows)) <= 1e-12 * np.max(np.abs(rows))
        assert stacked.tau == pytest.approx(by_row.tau, rel=1e-12)


    @pytest.mark.parametrize("alpha", [0.1, 0.125])
    def test_matches_detector_on_corrected_beats(self, alpha):
        # random spectra keep the Nyquist bin 72, which the receive RRC
        # nulls, so the bin-56 pair of roll-off 0.125 weighs in the error
        rng = np.random.default_rng(9)
        X = rng.normal(size=(30, 144)) + 1j * rng.normal(size=(30, 144))
        loop = FdtrLoop(alpha=alpha, tau=0.3)
        out = loop.process_beat(X)
        ref = FdtrLoop(alpha=alpha, tau=0.3)
        for x in X:
            ref.trace.append(ref.tau)
            sums, mag = godard_error(fd_interpolate(x, ref.tau), alpha)
            ref.update(sums.sum().imag / mag)
        taus = np.array(ref.trace)
        assert np.max(np.abs(np.array(loop.trace) - taus)) <= 1e-12 * np.max(np.abs(taus))
        want = fd_interpolate(X, taus[:, None])
        assert np.max(np.abs(out - want)) <= 1e-12 * np.max(np.abs(want))


class TestDriftTracking:
    def test_slope_matches_clock_ppm(self):
        # emulate a 50 ppm sampling-frequency offset: per-beat delay grows by
        # ppm * 1e-6 * 96 UI; the loop's tau slope must match within 10%
        ppm = 50.0
        per_beat_ui = ppm * 1e-6 * 96
        rng = np.random.default_rng(6)
        loop = FdtrLoop(kp=1e-2, ki=1e-4)
        n = 400
        for b in range(n):
            x = rng.integers(0, 2, 128).astype(float)
            X = fd_interpolate(shaped_block(x), per_beat_ui * b * txchain.SPS)
            loop.process_beat(X)
        trace = np.array(loop.trace) / txchain.SPS
        slope = np.polyfit(np.arange(n // 2, n), -trace[n // 2 :], 1)[0]
        assert abs(slope - per_beat_ui) <= 0.1 * per_beat_ui
