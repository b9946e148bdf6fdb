"""Timing-recovery tests: detector S-curve, interpolator, one-line tau estimate."""

import numpy as np
import pytest

from burstrx import channel, rxfront, timing, txchain
from burstrx.fourier import fft_144
from burstrx.timing import W1, FdtrLoop, estimate_taus, fd_interpolate, godard_error
from delay_reference import apply_fractional_delay


def shaped_block(symbols128):
    """73-bin half spectrum of one isolated block after tx and rx RRC."""
    h = txchain.rrc_response()
    X = np.empty(73, dtype=complex)
    X[:65] = np.fft.rfft(np.asarray(symbols128, float))
    return txchain.resample_up_fd(X) * h * h


def raw_error(X):
    """Im of the summed pair products: the detector error before normalizing."""
    return godard_error(X).imag


ROLLOFFS = [1 / 64, 0.05, 0.1, 0.125]   # the ends of the accepted range and between


def unwrap_form_taus(S, tau_ref):
    """The tau estimate with the moving sum read from clipped window indices."""
    n = len(S)
    beat = np.arange(n)
    sums = np.zeros(n + 1, dtype=complex)
    np.cumsum(S, out=sums[1:])
    moving = sums[np.minimum(beat + W1 // 2, n)] - sums[np.maximum(beat - W1 // 2, 0)]
    phase = np.unwrap(np.angle(moving)) * timing._SAMPLES_PER_RADIAN
    u = beat - (n - 1) / 2
    taus = phase.mean() + (u @ phase) / max(n * (n * n - 1) / 12, 1) * u
    return taus + txchain.SPS * np.round((tau_ref - taus[0]) / txchain.SPS)


def bins_last_interpolate(X, tau):
    """Fractional-delay rotation with the powers of ``w`` doubled along the last axis."""
    w = np.exp(-2j * np.pi / 144 * np.asarray(tau, dtype=float))
    powers = np.empty(w.shape[:-1] + (73,), dtype=complex)
    powers[..., 0] = 1.0
    powers[..., 1:2] = w
    np.multiply(w, w, out=powers[..., 2:3])
    m = 2
    while m < 72:
        top = min(2 * m, 72)
        np.multiply(
            powers[..., 1 : top - m + 1], powers[..., m : m + 1], out=powers[..., m + 1 : top + 1]
        )
        m = top
    return np.multiply(X, powers, out=powers if X.shape == powers.shape else None)


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
        assert godard_error(np.zeros(73, complex)) == 0.0

    def test_zero_at_perfect_timing(self):
        rng = np.random.default_rng(2)
        x = rng.integers(0, 2, 128).astype(float)
        X = shaped_block(x)
        k = timing.godard_band()
        assert abs(raw_error(X)) <= 1e-3 * np.sum(np.abs(X[k] * X[128 - k]))

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
        sums = godard_error(X, alpha)
        direct = godard_error(fd_interpolate(X, tau[:, None]), alpha)
        rotated = sums * np.exp(-2j * np.pi * (128 / 144) * tau)
        np.testing.assert_allclose(rotated, direct, rtol=1e-12, atol=0)

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

    @pytest.mark.parametrize("n", [1, 24, 29, 1400])
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

    @pytest.mark.parametrize("n", [1, 26, 1400])
    def test_one_tau_over_stack_equals_row_calls(self, n):
        # stage 1 corrects its whole window by tau0: one row of powers,
        # broadcast over the stack, gives each row what a one-row call gives
        rng = np.random.default_rng(n + 7)
        X = rng.normal(size=(n, 73)) + 1j * rng.normal(size=(n, 73))
        for tau in rng.uniform(-3.0, 3.0, size=5):
            stacked = fd_interpolate(X, tau)
            for b in range(n):
                assert np.array_equal(fd_interpolate(X[b], tau), stacked[b])

    @pytest.mark.parametrize("n", [1, 26, 29, 1364])
    def test_equals_bins_last_table(self, n):
        # the bins-major table multiplies the same pairs of powers as a
        # table with the bins on the last axis, so the rotation is the same
        rng = np.random.default_rng(n + 11)
        X = rng.normal(size=(n, 73)) + 1j * rng.normal(size=(n, 73))
        taus = np.concatenate([rng.uniform(-3.0, 3.0, (n, 1)), rng.uniform(-200.0, 200.0, (n, 1))])
        for column in (taus[:n], taus[n:]):
            assert np.array_equal(fd_interpolate(X, column), bins_last_interpolate(X, column))
        for tau in (0.0, 0.41, -2.9, 150.5):
            assert np.array_equal(fd_interpolate(X, tau), bins_last_interpolate(X, tau))
            assert np.array_equal(fd_interpolate(X[0], tau), bins_last_interpolate(X[0], tau))

    @pytest.mark.parametrize("n", [1, 29, 1364])
    def test_stack_comes_back_row_major(self, n):
        # every later stage walks the stack beat by beat: one beat per
        # contiguous row, not the transpose of the bins-major table
        rng = np.random.default_rng(n + 13)
        X = rng.normal(size=(n, 73)) + 1j * rng.normal(size=(n, 73))
        taus = rng.uniform(-3.0, 3.0, size=(n, 1))
        out = fd_interpolate(X, taus)
        assert out.flags.c_contiguous and out.shape == (n, 73)
        assert np.array_equal(out, bins_last_interpolate(X, taus))
        assert np.array_equal(fd_interpolate(X[-1], taus[-1, 0]), out[-1])

    @pytest.mark.parametrize("n", [1, 29, 1364])
    def test_in_place_equals_new_array(self, n):
        # out=X writes the rotation over the stack it reads; a call without
        # out leaves the stack as it was
        rng = np.random.default_rng(n + 17)
        X = rng.normal(size=(n, 73)) + 1j * rng.normal(size=(n, 73))
        for tau in (rng.uniform(-3.0, 3.0, size=(n, 1)), 0.41, rng.uniform(-200.0, 200.0)):
            before = X.copy()
            want = fd_interpolate(X, tau)
            assert np.array_equal(X, before)
            assert fd_interpolate(X, tau, out=X) is X
            assert np.array_equal(X, want)

    def test_powers_close_to_per_bin_exponentials(self):
        # the doubled powers of w against exp(-2j pi k tau / 144) evaluated
        # bin by bin, at taus up to 3 samples
        taus = np.concatenate([[-3.0, 3.0], np.random.default_rng(5).uniform(-3.0, 3.0, 4000)])
        exact = np.exp(-2j * np.pi * np.arange(73) / 144 * taus[:, None])
        powers = fd_interpolate(np.ones((len(taus), 73), complex), taus[:, None])
        assert np.max(np.abs(powers - exact)) <= 1e-14

    def test_integer_delay_is_circular_shift(self):
        rng = np.random.default_rng(2)
        x = rng.normal(size=144)
        X = fft_144(x)
        y = fft_144(fd_interpolate(X, 3.0), inverse=True)
        assert np.max(np.abs(y - np.roll(x, 3))) <= 1e-10 * np.max(np.abs(x))

    def test_inverse_pair_with_channel_delay(self):
        # fd_interpolate(tau) cancels apply_fractional_delay(-tau) on a
        # band-limited block
        rng = np.random.default_rng(3)
        x = rng.integers(0, 2, 128).astype(float)
        # two beats of symbols and two of the flush
        wave = txchain.tx_frame(np.concatenate([x, np.zeros(96 - 32)]))[: 4 * 108]
        tau = 0.37
        delayed = apply_fractional_delay(wave, -tau)
        rot = np.exp(-2j * np.pi * np.fft.rfftfreq(len(wave)) * tau)
        rot[-1] = 1.0  # match the channel's real-signal Nyquist convention
        W1 = np.fft.rfft(delayed) * rot
        assert np.max(np.abs(np.fft.irfft(W1, len(wave)) - wave)) < 1e-9


def random_stack(n, seed, **impairments):
    """Spectra of ``n`` consecutive beats of a random-payload stream through the channel."""
    bits = np.random.default_rng(seed).integers(0, 2, 96 * (n + 4)).astype(float)
    cfg = channel.ChannelConfig(gap_samples=0, **impairments)
    wave = channel.run_channel(txchain.tx_frame(bits), cfg)
    # the first two beats hold the transmit filter's ramp
    return rxfront.beat_spectra(rxfront.rx_slice_beats(wave, 216, n), txchain.rrc_response())


class TestEstimate:
    @pytest.mark.parametrize("branch", [-2, 0, 1, 3])
    @pytest.mark.parametrize("nudge_ui", [-0.4, 0.0, 0.4])
    def test_constant_offset_any_branch(self, branch, nudge_ui):
        # a 0.3 UI delay is undone by tau = -0.3 UI, on the branch of whole
        # symbols nearest the reference, wherever the reference lies
        X = random_stack(200, seed=42, timing_offset_ui=0.3)
        target = (-0.3 + branch) * txchain.SPS
        _, taus = FdtrLoop(tau_ref=target + nudge_ui * txchain.SPS).process_beat(X)
        assert np.max(np.abs(taus - target)) / txchain.SPS <= 0.02

    @pytest.mark.parametrize("n", [2, 29, 191, 313, 1364])
    def test_one_line_over_stack(self, n):
        # every beat reads the one line fitted over the whole stack, on a
        # stack as short as two beats and as long as the default frame's
        rng = np.random.default_rng(n)
        S = np.exp(2j * np.pi * (0.01 * np.arange(n) + rng.normal(0, 0.05, n)))
        taus = estimate_taus(S, 0.0)
        sums = np.array([S[max(b - W1 // 2, 0) : b + W1 // 2].sum() for b in range(n)])
        phase = np.unwrap(np.angle(sums)) * txchain.SPS / (2 * np.pi)
        line = np.polyval(np.polyfit(np.arange(n), phase, 1), np.arange(n))
        np.testing.assert_allclose(taus, line, rtol=0, atol=1e-12)

    @pytest.mark.parametrize("n", [1, 2, 29, 313])
    @pytest.mark.parametrize("turn", [0.0, 0.3, -2.0])
    def test_equals_unwrap_form(self, n, turn):
        # random sums, and sums whose phase turns by ``turn`` rad a beat, so
        # the windowed phase wraps many times: the padded window sums give
        # the clipped form's sums, and the same line fit its taus, exactly
        rng = np.random.default_rng(n)
        S = rng.normal(size=n) + 1j * rng.normal(size=n)
        S *= np.exp(1j * turn * np.arange(n) ** 2 / 2)
        for tau_ref in (0.0, 2.7, -40.0):
            assert np.array_equal(estimate_taus(S, tau_ref), unwrap_form_taus(S, tau_ref))

    def test_one_beat_reads_its_phase(self):
        S = np.array([np.exp(-2j * np.pi * 0.2)])
        assert estimate_taus(S, 2.0) == pytest.approx([(2 - 0.2) * txchain.SPS], abs=1e-15)

    def test_scale_leaves_taus_unchanged(self):
        X = random_stack(300, seed=5, clock_ppm=100.0)
        out, taus = FdtrLoop(tau_ref=0.2).process_beat(X)
        out_50, taus_50 = FdtrLoop(tau_ref=0.2).process_beat(X * 50)
        np.testing.assert_allclose(taus_50, taus, rtol=1e-12, atol=1e-12)
        np.testing.assert_allclose(out_50, out * 50, rtol=1e-12, atol=0)

    @pytest.mark.parametrize("alpha", [1 / 64, 0.125])
    def test_corrects_each_beat_by_its_tau(self, alpha):
        # random spectra keep the Nyquist bin 72, which the receive RRC
        # nulls; the band leaves out bin 56, its partner, at every roll-off
        rng = np.random.default_rng(9)
        X = rng.normal(size=(30, 73)) + 1j * rng.normal(size=(30, 73))
        out, taus = FdtrLoop(alpha=alpha, tau_ref=0.3).process_beat(X)
        assert np.array_equal(taus, estimate_taus(godard_error(X, alpha), 0.3))
        assert np.array_equal(out, fd_interpolate(X, taus[:, None]))


    @pytest.mark.parametrize("n", [1, 29, 1364])
    def test_in_place_equals_new_array(self, n):
        # the taus come from the detector sums before out=X overwrites the stack
        X = random_stack(n, seed=n, clock_ppm=100.0, timing_offset_ui=0.2)
        loop = FdtrLoop(tau_ref=0.1)
        before = X.copy()
        want, want_taus = loop.process_beat(X)
        assert np.array_equal(X, before)
        out, taus = loop.process_beat(X, out=X)
        assert out is X
        assert np.array_equal(X, want) and np.array_equal(taus, want_taus)


class TestDriftTracking:
    def test_slope_matches_clock_ppm(self):
        # a sampling-frequency offset moves the delay by ppm * 1e-6 * 96 UI
        # per beat; the taus follow it with the slope within 10% and no step
        # of a whole symbol, at 50 ppm and at 300 ppm, where the phase turns
        # 0.7 UI over one W1-beat sum
        n = 400
        for ppm in (50.0, 300.0):
            per_beat_ui = ppm * 1e-6 * 96
            _, taus = FdtrLoop().process_beat(random_stack(n, seed=6, clock_ppm=ppm))
            taus_ui = -taus / txchain.SPS
            slope = np.polyfit(np.arange(n), taus_ui, 1)[0]
            assert abs(slope - per_beat_ui) <= 0.1 * per_beat_ui, ppm
            assert np.max(np.abs(np.diff(taus_ui))) <= 3 * per_beat_ui, ppm
