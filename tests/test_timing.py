"""Timing-recovery tests: detector S-curve, loop filter, interpolator, closed loop."""

import numpy as np
import pytest

from burstrx import timing, txchain
from burstrx.fourier import fft_144
from burstrx.timing import FdtrLoop, fd_interpolate, godard_error


def shaped_block(symbols128):
    """73-bin half spectrum of one isolated block after tx and rx RRC."""
    h = txchain.rrc_response()
    X = txchain.resample_up_fd(np.fft.rfft(np.asarray(symbols128, float)))
    return X * h * h


def raw_error(X):
    """Im of the summed pair products: the detector error before normalizing."""
    return godard_error(X)[0].imag


ROLLOFFS = [1 / 64, 0.05, 0.1, 0.125]   # the ends of the accepted range and between


class TestGodardBand:
    def test_integerized_bounds(self):
        band = timing.godard_band(alpha=0.1)
        assert band[0] == 58 and band[-1] == 69
        assert len(band) == 12

    def test_bin_56_left_out(self):
        # [ceil(56), floor(72) - 1] = 56..71 at roll-off 0.125; bin 56 pairs
        # with the Nyquist bin and is dropped
        assert np.array_equal(timing.godard_band(0.125), np.arange(57, 72))

    @pytest.mark.parametrize("alpha", ROLLOFFS)
    def test_receive_rrc_nulls_nyquist_bin(self, alpha):
        # the premise for dropping bin 56: its partner, bin 72, is exactly 0
        # after the receive RRC at every accepted roll-off
        assert abs(txchain.rrc_response(alpha)[72]) == 0.0

    @pytest.mark.parametrize("alpha", ROLLOFFS)
    def test_one_pair_frequency(self, alpha):
        # no band bin pairs with the Nyquist bin, so f_k - f_(k+16), which is
        # f_k + f_(128-k) on the half spectrum, is 8/9 cycles per sample for
        # every pair
        k = timing.godard_band(alpha)
        assert k.size and not np.any(128 - k == 72)
        f = txchain.FREQ_SYMBOL_144 / txchain.SPS
        assert np.all(f[k] + f[128 - k] == 128 / 144)


class TestGodardError:
    def test_zero_input(self):
        assert godard_error(np.zeros(73, complex)) == (0.0, 0.0)

    def test_zero_at_perfect_timing(self):
        rng = np.random.default_rng(2)
        x = rng.integers(0, 2, 128).astype(float)
        X = shaped_block(x)
        e, mag = raw_error(X), godard_error(X)[1]
        k = timing.godard_band()
        assert mag == pytest.approx(np.sum(np.abs(X[k] * X[128 - k])))
        assert abs(e) <= 1e-3 * mag

    def test_sign_consistent_for_small_delay(self):
        rng = np.random.default_rng(3)
        signs = []
        for _ in range(100):
            x = rng.integers(0, 2, 128).astype(float)
            X = fd_interpolate(shaped_block(x), 0.05 * txchain.SPS)
            signs.append(np.sign(raw_error(X)))
        assert len(set(signs)) == 1

    @pytest.mark.parametrize("alpha", [0.1, 0.125])
    def test_rotated_sums_equal_corrected_detector(self, alpha):
        # the sum of X corrected by tau is the sum of the uncorrected X turned
        # by the one pair phase, even on spectra with a live Nyquist bin
        rng = np.random.default_rng(8)
        X = rng.normal(size=(6, 73)) + 1j * rng.normal(size=(6, 73))
        tau = rng.uniform(-0.6, 0.6, size=6)
        sums, mag = godard_error(X, alpha)
        direct, direct_mag = godard_error(fd_interpolate(X, tau[:, None]), alpha)
        rotated = sums * np.exp(-2j * np.pi * (128 / 144) * tau)
        np.testing.assert_allclose(rotated, direct, rtol=1e-12, atol=0)
        np.testing.assert_allclose(mag, direct_mag, rtol=1e-12, atol=0)

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


@pytest.fixture
def set_gains(monkeypatch):
    """Sets the loop gains, the module's one definitions, for one test."""

    def set_constants(kp, ki):
        monkeypatch.setattr(timing, "LOOP_KP", kp)
        monkeypatch.setattr(timing, "LOOP_KI", ki)

    return set_constants


class TestLoopFilter:
    def test_pure_proportional(self, set_gains):
        set_gains(0.5, 0.0)
        loop = FdtrLoop()
        assert tau_step(loop, 0.2) == pytest.approx(0.1)

    def test_constant_error_series(self, set_gains):
        set_gains(2.0, 0.1)
        loop = FdtrLoop()
        e = 0.3
        for n in range(1, 6):
            W = tau_step(loop, e)
            assert W == pytest.approx(2.0 * e + 0.1 * n * e)

    def test_zero_error_holds_accumulator(self, set_gains):
        set_gains(1.0, 0.5)
        loop = FdtrLoop(integral=2.0)
        for _ in range(3):
            assert tau_step(loop, 0.0) == pytest.approx(1.0)


class TestInterpolator:
    def test_identity(self):
        rng = np.random.default_rng(1)
        X = rng.normal(size=73) + 1j * rng.normal(size=73)
        assert np.array_equal(fd_interpolate(X, 0.0), X)

    def test_mirrored_half_equals_full_exponential(self):
        # the half spectrum's rotation is the first 73 bins of the full
        # 144-bin exponential, to the rounding of the running powers
        def full(X, tau):
            k = np.arange(144)
            f = np.where(k <= 72, k / 128, (k - 144) / 128) / 1.125
            return X * np.exp(-2j * np.pi * f * np.asarray(tau))

        def close(half, full):
            assert np.max(np.abs(half - full)) <= 1e-12 * np.max(np.abs(full))

        rng = np.random.default_rng(4)
        X = rng.normal(size=(500, 144)) + 1j * rng.normal(size=(500, 144))
        taus = rng.uniform(-200.0, 200.0, size=(500, 1))
        H = X[..., :73]
        close(fd_interpolate(H, taus), full(X, taus)[..., :73])
        for tau in taus[:50, 0]:
            close(fd_interpolate(H[0], tau), full(X[0], tau)[:73])
            close(fd_interpolate(H[:4], tau), full(X[:4], tau)[..., :73])

    @pytest.mark.parametrize("n", [1, 24, 1400])
    def test_one_row_equals_row_of_stack(self, n):
        # every row goes through the same operations whatever the stack, so
        # the per-beat reference receiver sees the batched values exactly
        rng = np.random.default_rng(n)
        X = rng.normal(size=(n, 73)) + 1j * rng.normal(size=(n, 73))
        taus = rng.uniform(-3.0, 3.0, size=(n, 1))
        stacked = fd_interpolate(X, taus)
        for b in range(n):
            assert np.array_equal(fd_interpolate(X[b], taus[b, 0]), stacked[b])
            assert np.array_equal(fd_interpolate(X[b : b + 1], taus[b : b + 1]), stacked[b : b + 1])

    def test_integer_delay_is_circular_shift(self):
        rng = np.random.default_rng(2)
        x = rng.normal(size=144)
        X = fft_144(x)
        y = fft_144(fd_interpolate(X, 3.0), inverse=True)
        assert np.max(np.abs(y - np.roll(x, 3))) <= 1e-10 * np.max(np.abs(x))

    def test_inverse_pair_with_channel_delay(self):
        # fd_interpolate(tau) cancels apply_fractional_delay(-tau) on a
        # band-limited block
        from burstrx import channel

        rng = np.random.default_rng(3)
        x = rng.integers(0, 2, 128).astype(float)
        # two beats of symbols and two of the flush
        wave = txchain.tx_frame(np.concatenate([x, np.zeros(96 - 32)]))[: 4 * 108]
        tau = 0.37
        delayed = channel.apply_fractional_delay(wave, -tau)
        rot = np.exp(-2j * np.pi * np.fft.rfftfreq(len(wave)) * tau)
        rot[-1] = 1.0  # match the channel's real-signal Nyquist convention
        W1 = np.fft.rfft(delayed) * rot
        assert np.max(np.abs(np.fft.irfft(W1, len(wave)) - wave)) < 1e-9


class TestClosedLoop:
    def run_loop(self, offset_ui, init, n_beats=200):
        rng = np.random.default_rng(42)
        loop = FdtrLoop()
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

    def test_integral_action_converges(self, set_gains):
        set_gains(1e-2, 1e-3)
        trace, target = self.run_loop(0.3, init=False, n_beats=200)
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
        # nulls; the band leaves out bin 56, its partner, at every roll-off
        rng = np.random.default_rng(9)
        X = rng.normal(size=(30, 73)) + 1j * rng.normal(size=(30, 73))
        loop = FdtrLoop(alpha=alpha, tau=0.3)
        out = loop.process_beat(X)
        ref = FdtrLoop(alpha=alpha, tau=0.3)
        for x in X:
            ref.trace.append(ref.tau)
            s, mag = godard_error(fd_interpolate(x, ref.tau), alpha)
            ref.update(s.imag / mag)
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
        loop = FdtrLoop()
        n = 400
        for b in range(n):
            x = rng.integers(0, 2, 128).astype(float)
            X = fd_interpolate(shaped_block(x), per_beat_ui * b * txchain.SPS)
            loop.process_beat(X)
        trace = np.array(loop.trace) / txchain.SPS
        slope = np.polyfit(np.arange(n // 2, n), -trace[n // 2 :], 1)[0]
        assert abs(slope - per_beat_ui) <= 0.1 * per_beat_ui
