"""Equalizer tests: band fold, MMSE algebra, DD-LMS update, demapping."""

import numpy as np
import pytest

from burstrx import equalizer, framing, txchain
from burstrx.equalizer import (
    FdeState,
    ThresholdTracker,
    apply_fde,
    build_reference,
    ddlms_update,
    decide_demap,
    mmse_estimate,
    strip_rolloff,
)
from burstrx.fourier import fft_pow2


class TestStripRolloff:
    def test_zero(self):
        assert not strip_rolloff(np.zeros(144, complex)).any()

    def test_inband_tone_passthrough(self):
        X = np.zeros(144, complex)
        X[8] = 1.0
        Y = strip_rolloff(X)
        assert Y[8] == 1.0
        assert np.sum(np.abs(Y) > 0) == 1

    def test_zero_isi_through_matched_chain(self):
        # widen -> tx RRC -> rx RRC -> fold reproduces the original 128-bin
        # spectrum exactly (Nyquist property of the matched pair)
        rng = np.random.default_rng(0)
        x = rng.normal(size=128)
        X = fft_pow2(x.astype(complex))
        h = txchain.rrc_response(delay_symbols=0)
        folded = strip_rolloff(txchain.resample_up_fd(X) * h * h)
        y = fft_pow2(folded, inverse=True)
        assert np.max(np.abs(y - x)) <= 1e-6


class TestMmse:
    def make_beats(self, seed=1):
        rng = np.random.default_rng(seed)
        C = rng.normal(size=(8, 128)) + 1j * rng.normal(size=(8, 128))
        return C

    def test_identity_channel_unit_taps(self):
        C = self.make_beats()
        W, dead = mmse_estimate(C.copy(), C)
        assert not dead.any()
        assert np.max(np.abs(W - 1.0)) < 1e-12

    def test_scalar_channel_inverted(self):
        C = self.make_beats(2)
        h = 0.7 - 0.4j
        W, _ = mmse_estimate(h * C, C)
        assert np.max(np.abs(W - 1.0 / h)) < 1e-9

    def test_scaling_property(self):
        # scaling all received beats by g scales W by 1/g
        C = self.make_beats(3)
        Y = (0.9 + 0.2j) * C
        g = 2.0 - 1.5j
        W1, _ = mmse_estimate(Y, C)
        W2, _ = mmse_estimate(g * Y, C)
        assert np.max(np.abs(W2 - W1 / g)) < 1e-9

    def test_per_bin_channel_with_noise_vs_least_squares(self):
        rng = np.random.default_rng(4)
        C = self.make_beats(5)
        h = 1.0 + 0.3 * rng.normal(size=128) + 0.3j * rng.normal(size=128)
        noise = 0.05 * (rng.normal(size=(8, 128)) + 1j * rng.normal(size=(8, 128)))
        Y = h * C + noise
        W, _ = mmse_estimate(Y, C)
        # independent per-bin least-squares fit of C on Y
        for k in range(0, 128, 17):
            wk = np.vdot(Y[:, k], C[:, k]) / np.vdot(Y[:, k], Y[:, k])
            assert abs(W[k] - wk) < 1e-9
        assert np.median(np.abs(W - 1.0 / h)) < 0.1

    def test_dead_bin_flag(self):
        C = self.make_beats(6)
        Y = C.copy()
        Y[:, 40] = 0.0
        W, dead = mmse_estimate(Y, C)
        assert dead[40] and W[40] == 0.0


class TestApplyFde:
    def test_unit_taps(self):
        rng = np.random.default_rng(7)
        Y = rng.normal(size=128) + 1j * rng.normal(size=128)
        assert np.array_equal(apply_fde(Y, np.ones(128)), Y)

    def test_zero_tap_kills_bin(self):
        Y = np.ones(128, complex)
        W = np.ones(128, complex)
        W[5] = 0.0
        assert apply_fde(Y, W)[5] == 0.0

    def test_training_residual_below_noise(self):
        rng = np.random.default_rng(8)
        C = rng.normal(size=(8, 128)) + 1j * rng.normal(size=(8, 128))
        h = 1.2 * np.exp(1j * np.linspace(0, 0.5, 128))
        noise = 0.02 * (rng.normal(size=(8, 128)) + 1j * rng.normal(size=(8, 128)))
        Y = h * C + noise
        W, _ = mmse_estimate(Y, C)
        resid = apply_fde(Y, W) - C
        assert np.mean(np.abs(resid) ** 2) < 4 * np.mean(np.abs(noise) ** 2)


class TestReference:
    def test_shape_and_determinism(self):
        lay = framing.FrameLayout(payload_len=0)
        r1 = build_reference(lay)
        r2 = build_reference(lay)
        assert r1.shape == (8, 128)
        assert np.array_equal(r1, r2)


class TestDdlms:
    def test_flat_beat_zero_error_fixed_point(self):
        # frequency-flat beat: all time samples equal, decisions exact, so the
        # decimated error vanishes and the taps do not move
        state = FdeState()
        z = np.ones(128)
        Z = fft_pow2(z.astype(complex))
        Y = Z.copy()
        W_before = state.W.copy()
        e = ddlms_update(state, Z, fft_pow2(Z, inverse=True), Y)
        assert np.max(np.abs(e)) < 1e-9
        assert np.array_equal(state.W, W_before)

    def test_single_error_group_update(self):
        # force a known error on one decimated bin group and check the tap move
        state = FdeState(mu=1e-3)
        z = np.ones(128)
        Z = fft_pow2(z.astype(complex))
        Y = np.ones(128, dtype=np.complex128)
        Z_perturbed = Z.copy()
        Z_perturbed[PICK := 32] += 5.0  # bin 32 = group j=2
        e = ddlms_update(state, Z_perturbed, fft_pow2(Z_perturbed, inverse=True), Y)
        mu_eff = 1e-3 / np.mean(np.abs(Y) ** 2)
        dW = state.W - np.ones(128)
        group = slice(2 * 16, 3 * 16)
        assert np.allclose(dW[group], 2 * mu_eff * np.conj(Y[group]) * e[group])
        outside = np.ones(128, bool)
        outside[group] = False
        assert np.max(np.abs(dW[outside])) < 1e-12

    def test_update_uses_conjugated_input(self):
        rng = np.random.default_rng(9)
        Z = rng.normal(size=128) + 1j * rng.normal(size=128)
        Y = rng.normal(size=128) + 1j * rng.normal(size=128)
        state = FdeState(mu=1e-3)
        e = ddlms_update(state, Z.copy(), fft_pow2(Z, inverse=True), Y)
        mu_eff = 1e-3 / np.mean(np.abs(Y) ** 2)
        assert np.allclose(state.W - 1.0, 2 * mu_eff * np.conj(Y) * e)

    def test_tracks_slow_gain_ramp(self):
        # gain ramps 1 -> 1.1 over 500 beats; post-FDE error energy must stay
        # within 3 dB of the static-channel level
        lay = framing.FrameLayout(payload_len=0)
        rng = np.random.default_rng(10)

        def run(ramp):
            state = FdeState(mu=2e-3)
            errs = []
            for b in range(500):
                x = rng.integers(0, 2, 128).astype(float)
                S = fft_pow2(x.astype(complex))
                g = 1.0 + (0.1 * b / 500 if ramp else 0.0)
                Y = g * S
                Z = apply_fde(Y, state.W)
                e = ddlms_update(state, Z, fft_pow2(Z, inverse=True), Y)
                errs.append(np.mean(np.abs(e) ** 2))
            return np.mean(errs[250:])

        static = run(False)
        ramped = run(True)
        assert ramped <= 2.0 * static  # 3 dB


class TestDecideDemap:
    def test_clean_levels(self):
        tracker = ThresholdTracker()
        z = np.array([0.0, 1.0, 1.0, 0.0, 1.0])
        assert list(decide_demap(z, tracker)) == [0, 1, 1, 0, 1]

    def test_all_below_threshold(self):
        tracker = ThresholdTracker()
        assert not decide_demap(np.full(10, 0.2), tracker).any()

    def test_threshold_tracks_levels(self):
        tracker = ThresholdTracker()
        rng = np.random.default_rng(11)
        for _ in range(50):
            bits = rng.integers(0, 2, 96)
            z = bits + 0.2 + 0.01 * rng.normal(size=96)  # shifted levels
            decide_demap(z, tracker)
        assert abs(tracker.value - 0.7) < 0.05

    def test_ber_matches_q_function(self):
        # AWGN on clean {0,1} levels at fixed threshold: BER ~ Q(0.5/sigma)
        from scipy.stats import norm

        rng = np.random.default_rng(12)
        n = 2_000_000
        bits = rng.integers(0, 2, n)
        sigma = 0.18
        z = bits + sigma * rng.normal(size=n)
        errors = np.count_nonzero((z > 0.5).astype(int) != bits)
        ber = errors / n
        # +-0.3 dB-equivalent band around the prediction Q(0.5/sigma)
        lo = norm.sf(0.5 / (sigma * 10 ** (-0.3 / 20)))
        hi = norm.sf(0.5 / (sigma * 10 ** (0.3 / 20)))
        assert min(lo, hi) <= ber <= max(lo, hi)
