"""Equalizer tests: band fold, tap fit, DD-LMS update, demapping."""

import numpy as np
import pytest

from burstrx import txchain
from burstrx.equalizer import (
    LAGS,
    FdeState,
    ThresholdTracker,
    apply_fde,
    ddlms_update,
    decide_demap,
    fit_taps,
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


def training_blocks(seed, n=8):
    """Overlap-save training blocks: 32 head symbols then the beat's 96."""
    rng = np.random.default_rng(seed)
    stream = rng.integers(0, 2, 96 * n + 32).astype(float)
    blocks = np.array([stream[96 * b : 96 * b + 128] for b in range(n)])
    return blocks, blocks[:, 32:]


def spectra(blocks):
    return fft_pow2(np.asarray(blocks, dtype=complex))


def circular_filter(taps, blocks):
    """Blocks filtered circularly by a causal real FIR, lags 0, 1, ..."""
    return np.array(
        [[sum(t * x[(n - l) % 128] for l, t in enumerate(taps)) for n in range(128)]
         for x in blocks]
    )


class TestMmse:
    def test_identity_channel_unit_taps(self):
        # the matched RRC pair with no channel: the fit is the unit tap and
        # the equalized valid positions equal the training symbols
        blocks, c = training_blocks(1)
        h = txchain.rrc_response(delay_symbols=0)
        Y = strip_rolloff(txchain.resample_up_fd(spectra(blocks)) * h * h)
        state = FdeState()
        state.initialize(Y, c)
        z = fft_pow2(apply_fde(Y, state.W), inverse=True)[:, 32:]
        assert np.max(np.abs(state.W - 1.0)) <= 1e-9
        assert np.max(np.abs(z - c)) <= 1e-9

    def test_scalar_channel_inverted(self):
        blocks, c = training_blocks(2)
        state = FdeState()
        state.initialize(spectra(0.7 * blocks), c)
        assert np.max(np.abs(state.W - 1.0 / 0.7)) < 1e-9

    def test_scaling_property(self):
        # scaling all received beats by a real g scales W by 1/g
        blocks, c = training_blocks(3)
        Y = spectra(circular_filter([0.1, 1.0, -0.2], blocks))
        g = 2.5
        s1, s2 = FdeState(), FdeState()
        s1.initialize(Y, c)
        s2.initialize(g * Y, c)
        assert np.max(np.abs(s2.W - s1.W / g)) < 1e-9

    def test_per_bin_channel_with_noise_vs_least_squares(self):
        # a frequency-selective channel with noise: the taps equal an
        # independent least-squares fit of the stacked 768 x 33 system
        rng = np.random.default_rng(4)
        blocks, c = training_blocks(5)
        y = circular_filter([0.15, 1.0, 0.3, -0.1], blocks) + 0.05 * rng.normal(size=(8, 128))
        A = np.array([[y[b, (n - l) % 128] for l in LAGS] for b in range(8) for n in range(32, 128)])
        oracle = np.linalg.lstsq(A, c.reshape(-1), rcond=None)[0]
        assert A.shape == (768, 33)
        assert np.max(np.abs(fit_taps(spectra(y), c) - oracle)) <= 1e-9

    def test_silent_training_keeps_unit_taps(self):
        _, c = training_blocks(6)
        with pytest.raises(np.linalg.LinAlgError):
            fit_taps(np.zeros((8, 128), complex), c)
        state = FdeState()
        state.initialize(np.zeros((8, 128), complex), c)
        assert np.array_equal(state.W, np.ones(128))


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
        # a gain with mild ISI, inverted by the fitted taps to within the noise
        rng = np.random.default_rng(8)
        blocks, c = training_blocks(9)
        noise = 0.02 * rng.normal(size=(8, 128))
        Y = spectra(circular_filter([1.2, 0.25], blocks) + noise)
        state = FdeState()
        state.initialize(Y, c)
        resid = fft_pow2(apply_fde(Y, state.W), inverse=True)[:, 32:] - c
        assert np.mean(np.abs(resid) ** 2) < 4 * np.mean(noise**2)


def random_beat(seed):
    """Spectrum of a real 128-sample beat and 96 decisions for it."""
    rng = np.random.default_rng(seed)
    Y = fft_pow2(rng.normal(size=128).astype(complex))
    return Y, rng.integers(0, 2, 96).astype(np.uint8)


def oracle_update(state, z, d, Y):
    """One DD-LMS tap update against decisions ``d``; returns the error spectrum."""
    e = np.zeros(128, complex)
    e[32:] = d - z
    E = fft_pow2(e)
    power = float(np.mean(np.abs(Y) ** 2))
    mu_eff = state.mu / power if power > 0 else 0.0
    state.W = state.W + 2.0 * mu_eff * np.conj(Y) * E
    return E


def oracle_ddlms(state, Y):
    """The payload recursion one beat at a time: equalize, decide, update."""
    z, bits = [], []
    for Y_b in Y:
        z_b = fft_pow2(apply_fde(Y_b, state.W), inverse=True)[32:]
        d = decide_demap(z_b[None], state.threshold)[0]
        oracle_update(state, z_b, d, Y_b)
        z.append(z_b)
        bits.append(d)
    return np.reshape(z, (-1, 96)), np.reshape(bits, (-1, 96))


def payload_stack(seed, n):
    """Spectra of ``n`` noisy overlap-save blocks through a mild ISI channel.

    The levels sit at about 0.3 and 1.2, so some decisions depend on the
    running threshold rather than on the initial 0.5.
    """
    rng = np.random.default_rng(seed)
    blocks, c = training_blocks(seed, n)
    y = circular_filter([0.1, 1.0, -0.2], blocks) + 0.3 + 0.15 * rng.normal(size=blocks.shape)
    return spectra(y), c


class TestDdlms:
    def test_flat_beat_zero_error_fixed_point(self):
        # frequency-flat beat decided exactly: zero error and no tap move
        # (that the head is ignored is test_head_does_not_change_error)
        Y = fft_pow2(np.ones(128, complex))
        state = FdeState()
        z, bits = ddlms_update(state, Y[None])
        assert np.array_equal(z, np.ones((1, 96)))
        assert np.array_equal(bits, np.ones((1, 96)))
        assert np.array_equal(state.W, np.ones(128))

    def test_head_does_not_change_error(self):
        Y, d = random_beat(2)
        rng = np.random.default_rng(3)
        z = rng.normal(size=128) + 0.0j
        E1 = oracle_update(FdeState(), z[32:], d, Y)
        z[:32] = rng.normal(size=32)
        E2 = oracle_update(FdeState(), z[32:], d, Y)
        assert np.array_equal(E1, E2)

    def test_single_error_sample_update(self):
        # one valid-position error e at position n is the spectrum
        # e exp(-2 pi i k n / 128) on every bin
        Y, d = random_beat(4)
        z = d.astype(complex)
        z[40 - 32] += 0.5
        state = FdeState(mu=1e-3)
        E = oracle_update(state, z, d, Y)
        k = np.arange(128)
        assert np.allclose(E, -0.5 * np.exp(-2j * np.pi * k * 40 / 128), atol=1e-12)
        mu_eff = 1e-3 / np.mean(np.abs(Y) ** 2)
        assert np.allclose(state.W - 1.0, 2 * mu_eff * np.conj(Y) * E)

    def test_small_step_lowers_error(self):
        Y, _ = random_beat(5)
        state = FdeState(mu=1e-3)
        z, bits = ddlms_update(state, Y[None])
        after = fft_pow2(apply_fde(Y, state.W), inverse=True)[32:]
        assert np.sum(np.abs(bits[0] - after) ** 2) < np.sum(np.abs(bits[0] - z[0]) ** 2)

    def test_update_uses_conjugated_input(self):
        rng = np.random.default_rng(9)
        Y = rng.normal(size=128) + 1j * rng.normal(size=128)
        state = FdeState(mu=1e-3)
        z, bits = ddlms_update(state, Y[None])
        e = np.zeros(128, complex)
        e[32:] = bits[0] - z[0]
        mu_eff = 1e-3 / np.mean(np.abs(Y) ** 2)
        assert np.allclose(state.W - 1.0, 2 * mu_eff * np.conj(Y) * fft_pow2(e))

    def test_tracks_slow_gain_ramp(self):
        # gain ramps 1 -> 1.1 over 500 beats; post-FDE error energy must stay
        # within 3 dB of the static-channel level, set by receiver noise since
        # the valid-position error of a static noiseless beat is exactly zero
        def run(ramp, mu=1e-2):
            rng = np.random.default_rng(10)
            Y = []
            for b in range(500):
                x = rng.integers(0, 2, 128).astype(float)
                g = 1.0 + (0.1 * b / 500 if ramp else 0.0)
                Y.append(fft_pow2((g * x + 0.02 * rng.normal(size=128)).astype(complex)))
            z, bits = ddlms_update(FdeState(mu=mu), np.array(Y))
            return np.mean(np.sum(np.abs(bits - z) ** 2, axis=-1)[250:])

        static = run(False)
        ramped = run(True)
        assert ramped <= 2.0 * static  # 3 dB
        assert run(True, mu=0.0) > 2.0 * static  # untracked, the ramp shows

    @pytest.mark.parametrize("mmse_init", [False, True], ids=["unit_taps", "mmse_taps"])
    def test_matches_per_beat_oracle(self, mmse_init):
        Y, c = payload_stack(13, 8 + 200)
        states = FdeState(mu=1e-2), FdeState(mu=1e-2)
        if mmse_init:
            for state in states:
                state.initialize(Y[:8], c[:8])
        z, bits = ddlms_update(states[0], Y[8:])
        z_ref, bits_ref = oracle_ddlms(states[1], Y[8:])
        assert z.shape == bits.shape == (200, 96)
        assert np.array_equal(z, z_ref)
        assert np.array_equal(bits, bits_ref)
        assert np.array_equal(states[0].W, states[1].W)
        assert states[0].threshold.value == states[1].threshold.value

    def test_empty_stack(self):
        state = FdeState()
        state.W = fft_pow2(np.arange(128.0) + 0j)
        W = state.W.copy()
        z, bits = ddlms_update(state, np.zeros((0, 128), complex))
        assert z.shape == bits.shape == (0, 96)
        assert np.array_equal(state.W, W)

    def test_caller_taps_not_written(self):
        # the taps are updated in place on a copy: the array the state held
        # on entry (here the tap-fit array) keeps its values
        Y, c = payload_stack(15, 8 + 20)
        state = FdeState(mu=1e-2)
        state.initialize(Y[:8], c[:8])
        W_in = state.W
        W_fit = W_in.copy()
        ddlms_update(state, Y[8:])
        assert np.array_equal(W_in, W_fit)
        assert state.W is not W_in
        assert not np.array_equal(state.W, W_fit)

    def test_silent_beat_leaves_taps(self):
        # an all-zero beat has zero power: no step, no warning
        Y, _ = payload_stack(14, 3)
        Y[1] = 0.0
        state, ref = FdeState(mu=1e-2), FdeState(mu=1e-2)
        ddlms_update(state, Y[:2])
        ddlms_update(ref, Y[:1])
        assert np.array_equal(state.W, ref.W)
        assert not np.array_equal(ref.W, np.ones(128))


class TestDecideDemap:
    def test_clean_levels(self):
        tracker = ThresholdTracker()
        z = np.array([0.0, 1.0, 1.0, 0.0, 1.0])
        bits = decide_demap(z, tracker)
        assert list(bits) == [0, 1, 1, 0, 1]

    def test_all_below_threshold(self):
        tracker = ThresholdTracker()
        bits = decide_demap(np.full(10, 0.2), tracker)
        assert not bits.any()

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
