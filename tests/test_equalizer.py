"""Equalizer tests: band fold, tap fit, delayed DD-LMS, demapping."""

import math

import numpy as np
import pytest

from burstrx import equalizer, pipeline, rxfront, txchain
from burstrx.equalizer import (
    DDLMS_DELAY,
    DDLMS_LOOP,
    DDLMS_MU,
    LAGS,
    FdeState,
    _LAG_IDFT,
    _bin_steps,
    _gradients,
    apply_fde,
    ddlms_update,
    decide_demap,
    equalize,
    fit_taps,
    strip_rolloff,
    tap_spectrum,
)
from burstrx.errors import FftSizeError
from burstrx.fourier import fft_pow2

UNIT = (LAGS == 0).astype(float)


@pytest.fixture
def set_ddlms(monkeypatch):
    """Sets the DD-LMS step and loop delay, the module's one definitions, for one test."""

    def set_constants(mu, delay):
        monkeypatch.setattr(equalizer, "DDLMS_MU", mu)
        monkeypatch.setattr(equalizer, "DDLMS_DELAY", delay)

    return set_constants


def widened(x):
    """73-bin half spectra of the real blocks ``x``, widened by ``resample_up_fd``."""
    x = np.asarray(x, dtype=float)
    Y = np.empty(x.shape[:-1] + (73,), dtype=complex)
    fft_pow2(x, out=Y[..., :65])
    return txchain.resample_up_fd(Y)


class TestStripRolloff:
    def test_zero(self):
        assert not strip_rolloff(np.zeros(73, complex)).any()

    def test_size_checked(self):
        with pytest.raises(FftSizeError):
            strip_rolloff(np.zeros(65, complex))

    def test_inband_tone_passthrough(self):
        X = np.zeros(73, complex)
        X[8] = 1.0
        Y = strip_rolloff(X)
        assert Y[8] == 1.0
        assert np.sum(np.abs(Y) > 0) == 1

    def test_zero_isi_through_matched_chain(self):
        # widen -> tx RRC -> rx RRC -> fold reproduces the original 128-bin
        # spectrum exactly (Nyquist property of the matched pair)
        rng = np.random.default_rng(0)
        x = rng.normal(size=128)
        h = np.sqrt(txchain.rc_magnitude(txchain.FREQ_SYMBOL_144))  # zero-phase RRC
        folded = strip_rolloff(widened(x) * h * h)
        y = fft_pow2(folded, inverse=True)
        assert np.max(np.abs(y - x)) <= 1e-6


def training_blocks(seed, n=8):
    """Overlap-save training blocks: 32 head symbols then the beat's 96."""
    rng = np.random.default_rng(seed)
    stream = rng.integers(0, 2, 96 * n + 32).astype(float)
    blocks = np.array([stream[96 * b : 96 * b + 128] for b in range(n)])
    return blocks, blocks[:, 32:]


def spectra(blocks):
    return fft_pow2(np.asarray(blocks, dtype=float))


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
        h = np.sqrt(txchain.rc_magnitude(txchain.FREQ_SYMBOL_144))  # zero-phase RRC
        Y = strip_rolloff(widened(blocks) * h * h)
        state = FdeState()
        state.initialize(Y, c)
        z = equalize(Y, state.w)
        assert np.max(np.abs(state.w - UNIT)) <= 1e-9
        assert np.max(np.abs(z - c)) <= 1e-9

    def test_scalar_channel_inverted(self):
        blocks, c = training_blocks(2)
        state = FdeState()
        state.initialize(spectra(0.7 * blocks), c)
        assert np.max(np.abs(state.w - UNIT / 0.7)) < 1e-9

    def test_scaling_property(self):
        # scaling all received beats by a real g scales w by 1/g
        blocks, c = training_blocks(3)
        Y = spectra(circular_filter([0.1, 1.0, -0.2], blocks))
        g = 2.5
        s1, s2 = FdeState(), FdeState()
        s1.initialize(Y, c)
        s2.initialize(g * Y, c)
        assert np.max(np.abs(s2.w - s1.w / g)) < 1e-9

    def test_per_bin_channel_with_noise_vs_least_squares(self):
        # a frequency-selective channel with noise: the taps equal an
        # independent least-squares fit of the stacked 768 x LAGS.size system
        rng = np.random.default_rng(4)
        blocks, c = training_blocks(5)
        y = circular_filter([0.15, 1.0, 0.3, -0.1], blocks) + 0.05 * rng.normal(size=(8, 128))
        A = np.array([[y[b, (n - l) % 128] for l in LAGS] for b in range(8) for n in range(32, 128)])
        oracle = np.linalg.lstsq(A, c.reshape(-1), rcond=None)[0]
        assert A.shape == (768, LAGS.size)
        assert np.max(np.abs(fit_taps(spectra(y), c) - oracle)) <= 1e-9

    def test_gain_only_fit(self):
        # lag 0 alone is the least-squares gain: sum(y c) / sum(y^2) over the
        # valid positions, whatever the ISI; the other taps are 0
        blocks, c = training_blocks(10)
        y = circular_filter([0.2, 0.6], blocks)
        gain = np.sum(y[:, 32:] * c) / np.sum(y[:, 32:] ** 2)
        state = FdeState()
        state.initialize(spectra(y), c, lags=[0])
        assert np.allclose(state.w, gain * UNIT, rtol=1e-12, atol=0)

    @pytest.mark.parametrize("lags", [LAGS, [0]])
    def test_fit_reads_match_index_build(self, lags):
        # the columns of the one read table that each of the receiver's two
        # lag sets selects give the taps of reads built per call,
        # (n - l) mod 128 for valid output n and lag l, and the state holds
        # them at their lags, 0 elsewhere
        rng = np.random.default_rng(12)
        blocks, c = training_blocks(12)
        Y = spectra(circular_filter([0.15, 1.0, 0.3], blocks) + 0.05 * rng.normal(size=(8, 128)))
        y = fft_pow2(Y, inverse=True)
        reads = (np.arange(32, 128)[:, None] - np.asarray(lags)) % 128
        A = np.take(y, reads, axis=-1).reshape(-1, len(reads[0]))
        want = np.linalg.solve(A.T @ A, A.T @ c.reshape(-1))
        assert np.array_equal(fit_taps(Y, c, lags), want)
        state = FdeState()
        state.initialize(Y, c, lags)
        assert np.array_equal(state.w[np.asarray(lags) - LAGS[0]], want)
        assert not np.delete(state.w, np.asarray(lags) - LAGS[0]).any()

    def test_silent_training_keeps_unit_taps(self):
        _, c = training_blocks(6)
        for lags in (LAGS, [0]):
            with pytest.raises(np.linalg.LinAlgError):
                fit_taps(np.zeros((8, 65), complex), c, lags)
            state = FdeState()
            state.initialize(np.zeros((8, 65), complex), c, lags)
            assert np.array_equal(state.w, UNIT)


class TestApplyFde:
    def test_tap_spectrum(self):
        # lag l sits at block position l mod 128; one spectrum per row
        rng = np.random.default_rng(6)
        w = rng.normal(size=(3, LAGS.size))
        full = np.zeros((3, 128))
        for i, l in enumerate(LAGS):
            full[:, l % 128] = w[:, i]
        assert np.allclose(tap_spectrum(w), np.fft.fft(full)[:, :65], rtol=0, atol=1e-12)
        assert np.array_equal(tap_spectrum(UNIT), np.ones(65))

    def test_unit_taps(self):
        rng = np.random.default_rng(7)
        Y = rng.normal(size=65) + 1j * rng.normal(size=65)
        assert np.array_equal(apply_fde(Y, np.ones(65)), Y)

    def test_zero_tap_kills_bin(self):
        Y = np.ones(65, complex)
        W = np.ones(65, complex)
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
        resid = equalize(Y, state.w) - c
        assert np.mean(np.abs(resid) ** 2) < 4 * np.mean(noise**2)


def random_beat(seed):
    """Half spectrum of a real 128-sample beat of random bits and its samples."""
    rng = np.random.default_rng(seed)
    y = rng.integers(0, 2, 128).astype(float)
    return fft_pow2(y), y


def tap_reads(y):
    """The 96 x LAGS.size block A_b: valid output n reads sample (n - l) mod 128 for lag l."""
    return np.array([[y[(n - l) % 128] for l in LAGS] for n in range(32, 128)])


def whitened(Y_b, power):
    """Samples of the beat ``Y_b`` with each bin divided by its power, 0 where that is 0."""
    return fft_pow2(np.divide(Y_b, power, out=np.zeros(65, complex), where=power > 0), inverse=True)


def oracle_ddlms(state, Y):
    """Delayed, constrained LMS with a per-bin step, one beat at a time.

    Beat b is equalized with w_b = w_0 + sum_{j <= b - D} g_j and decided at
    0.5.  When g_j lands, at beat j + D, it is 2 mu A'_j^T e_j with
    e_j = d_j - z_j and A'_j read from beat j's samples whitened by the
    per-bin power P_k = mean |Y_k|^2 over beats 0..D-1 (:func:`whitened`);
    mu and D are the equalizer's ``DDLMS_MU`` and ``DDLMS_DELAY`` as the
    call finds them.  Returns ``(z, bits)`` and leaves the taps of the last
    beat in ``state.w``.
    """
    mu, delay = equalizer.DDLMS_MU, equalizer.DDLMS_DELAY
    w_b = np.array(state.w)
    z, bits = [], []
    for b, Y_b in enumerate(Y):
        if b >= delay:
            if b == delay:
                power = np.mean(np.abs(Y[:delay]) ** 2, axis=0)
            j = b - delay
            w_b = w_b + 2.0 * mu * tap_reads(whitened(Y[j], power)).T @ (bits[j] - z[j])
        W = np.zeros(128)
        W[LAGS % 128] = w_b
        z.append(fft_pow2(Y_b * fft_pow2(W), inverse=True)[32:])
        bits.append((z[-1] > 0.5).astype(np.uint8))
    state.w = w_b
    return np.reshape(z, (-1, 96)), np.reshape(bits, (-1, 96))


def payload_stack(seed, n):
    """Spectra of ``n`` noisy overlap-save blocks through a mild ISI channel.

    The levels sit at about 0.3 and 1.3, so some decisions at 0.5 are wrong
    and the taps have an offset and a gain to chase.
    """
    rng = np.random.default_rng(seed)
    blocks, c = training_blocks(seed, n)
    y = circular_filter([0.1, 1.0, -0.2], blocks) + 0.3 + 0.15 * rng.normal(size=blocks.shape)
    return spectra(y), c


class TestLagTables:
    """The two fixed tables against the full transforms they stand in for."""

    @pytest.mark.parametrize("shape", [(40, LAGS.size), (LAGS.size,)])
    def test_tap_spectrum_is_padded_rfft(self, shape):
        w = np.random.default_rng(21).normal(size=shape)
        padded = np.zeros(shape[:-1] + (128,))
        padded[..., LAGS] = w
        want = np.fft.rfft(padded)
        got = tap_spectrum(w)
        assert got.shape == want.shape
        assert np.max(np.abs(got - want)) <= 1e-13 * np.max(np.abs(want))

    def test_gradients_are_lag_readout_of_irfft(self):
        Y, _ = payload_stack(22, 242)
        w = np.random.default_rng(22).normal(size=LAGS.size) * 0.1 + UNIT
        z = equalize(Y, w)
        bits = decide_demap(z)
        steps = 2.0 * DDLMS_MU / np.mean(np.abs(np.fft.rfft(np.fft.irfft(Y, 128))) ** 2, axis=0)
        e = np.zeros((len(Y), 128))
        e[:, 32:] = bits - z
        want = np.fft.irfft(np.fft.rfft(e) * np.conj(Y) * steps, 128)[:, LAGS]
        got = _gradients(Y, z, bits, np.repeat(_bin_steps(Y), 2)[:, None] * _LAG_IDFT)
        assert np.max(np.abs(got - want)) <= 1e-12 * np.max(np.abs(want))

    def test_silent_bins_take_no_step(self):
        # a bin silent on every beat has power 0 and step 0, with no warning
        Y, _ = payload_stack(24, 20)
        Y[:, [3, 40]] = 0.0
        steps = _bin_steps(Y)
        assert np.array_equal(steps[[3, 40]], [0.0, 0.0])
        assert np.all(steps[np.r_[:3, 4:40, 41:65]] > 0)
        assert not np.any(_bin_steps(np.zeros((5, 65), complex)))


class TestLoopDelay:
    def test_delay_is_the_hardware_error_path(self):
        # one beat per clock: 70 + 80 + 2 x 46 cycles of the DD-LMS error path
        assert DDLMS_DELAY == sum(pipeline.STAGES[name] for name in DDLMS_LOOP) == 242
        # ddlms_update reads it: the first gradient lands on beat DDLMS_DELAY
        Y, _ = payload_stack(23, DDLMS_DELAY + 1)
        state = FdeState()
        ddlms_update(state, Y[:DDLMS_DELAY])
        assert np.array_equal(state.w, UNIT)
        ddlms_update(state, Y)
        assert not np.array_equal(state.w, UNIT)

    def test_step_inside_delayed_lms_bound(self, set_ddlms):
        # With every decision 0 the taps of beat b move by
        # -mu sum_{j <= b - D} R_j w_j, R_j = 2 A'_j^T A_j the step matrix of
        # beat j.  Shaped random on-off beats of the chain are scaled so
        # small that every decision is 0 (the per-bin step makes the
        # gradients scale-free), and a step so small that the taps stay at
        # w_0 reads the mean of R_j over n landing gradients, one column per
        # unit w_0.  Every eigenvalue is ~ 2 * 96 / 128 = 1.5, and LMS with
        # loop delay D is stable while mu * lam < 2 sin(pi / (2 (2D + 1)))
        # (Long, Ling and Proakis 1989); the step keeps a factor 2.5 from
        # that bound, so a longer loop in the pipeline dataset fails here.
        n, mu = 8 * DDLMS_DELAY, 1e-9
        rng = np.random.default_rng(25)
        wave = txchain.tx_frame(rng.integers(0, 2, 96 * (n + DDLMS_DELAY + 1)).astype(float))
        beats = rxfront.rx_slice_beats(wave, 36, n + DDLMS_DELAY)
        Y = 1e-9 * strip_rolloff(rxfront.beat_spectra(beats, txchain.rrc_response()))
        set_ddlms(mu, DDLMS_DELAY)
        R = np.empty((LAGS.size, LAGS.size))
        for i, w_0 in enumerate(np.eye(LAGS.size)):
            state = FdeState(w=w_0)
            _, bits = ddlms_update(state, Y)
            assert not bits.any()
            R[:, i] = (w_0 - state.w) / (mu * n)
        lam = np.linalg.eigvals(R)
        assert np.all(np.abs(lam - 1.5) <= 0.15), lam
        bound = 2 * math.sin(math.pi / (2 * (2 * DDLMS_DELAY + 1)))
        assert DDLMS_MU * np.max(np.abs(lam)) <= bound / 2.5

    @pytest.mark.parametrize("n", [1, 7])
    def test_stack_within_delay_keeps_taps(self, n, set_ddlms):
        # no gradient lands before the stack ends: the fitted taps decide all
        Y, c = payload_stack(16, 8 + n)
        set_ddlms(1e-2, 7)
        state = FdeState()
        state.initialize(Y[:8], c[:8])
        w_fit = state.w.copy()
        z, bits = ddlms_update(state, Y[8:])
        assert np.array_equal(state.w, w_fit)
        assert np.array_equal(bits, decide_demap(equalize(Y[8:], w_fit)))


class TestDdlms:
    def test_flat_beat_zero_error_fixed_point(self, set_ddlms):
        # frequency-flat beat decided exactly: zero error and no tap move
        Y = fft_pow2(np.ones(128))
        set_ddlms(1e-3, 1)
        state = FdeState()
        z, bits = ddlms_update(state, np.array([Y, Y]))
        assert np.array_equal(z, np.ones((2, 96)))
        assert np.array_equal(bits, np.ones((2, 96)))
        assert np.array_equal(state.w, UNIT)

    def test_head_does_not_change_error(self, set_ddlms):
        # the valid positions hold exact levels and the head holds noise:
        # with unit taps the error is zero, so the taps stay put although
        # the head is far from any level
        Y, y = random_beat(2)
        y[:32] = np.random.default_rng(3).normal(size=32)
        Y = fft_pow2(y)
        set_ddlms(1e-2, 1)
        state = FdeState()
        ddlms_update(state, np.array([Y, Y]))
        assert np.max(np.abs(state.w - UNIT)) <= 1e-15

    def test_single_error_sample_update(self, set_ddlms):
        # one valid-position error e at position n moves lag l by
        # 2 mu e y'[(n - l) mod 128]: the error correlated with the input
        # whitened by the per-bin power, here that of the beat itself
        Y, y = random_beat(4)
        y[40] += 0.3  # decided as before, with error -0.3
        Y = fft_pow2(y)
        set_ddlms(1e-3, 1)
        state = FdeState()
        ddlms_update(state, np.array([Y, Y]))
        expected = 2e-3 * -0.3 * whitened(Y, np.abs(Y) ** 2)[(40 - LAGS) % 128]
        assert np.allclose(state.w - UNIT, expected, rtol=1e-9, atol=1e-16)

    def test_small_step_lowers_error(self, set_ddlms):
        Y, _ = random_beat(5)
        Y = Y * fft_pow2(np.r_[1.0, 0.2, np.zeros(126)])  # mild ISI
        set_ddlms(1e-3, 1)
        z, bits = ddlms_update(FdeState(), np.array([Y, Y]))
        assert np.array_equal(bits[0], bits[1])
        assert np.sum(np.abs(bits[1] - z[1]) ** 2) < np.sum(np.abs(bits[0] - z[0]) ** 2)

    def test_update_uses_conjugated_input(self, set_ddlms):
        # half spectra with complex DC and Nyquist bins, which no real block
        # has: the gradient of beat 0, landing on beat 2, correlates the
        # error with the real samples of beat 0 whitened by the power of
        # beats 0 and 1, which read those bins' real parts, at (n - l) mod 128
        rng = np.random.default_rng(9)
        Y = rng.normal(size=(2, 65)) + 1j * rng.normal(size=(2, 65))
        set_ddlms(1e-3, 2)
        state = FdeState()
        z, bits = ddlms_update(state, Y[[0, 1, 1]])
        y = whitened(Y[0], np.mean(np.abs(Y) ** 2, axis=0))
        g = 2e-3 * tap_reads(y).T @ (bits[0] - z[0])
        assert np.allclose(state.w - UNIT, g, rtol=1e-9, atol=1e-16)

    def test_tracks_slow_gain_ramp(self, set_ddlms):
        # gain ramps 1 -> 1.1 over 500 beats with a one-beat loop delay;
        # post-FDE error energy must stay within 3 dB of the static-channel
        # level, set by receiver noise since the valid-position error of a
        # static noiseless beat is exactly zero
        def run(ramp, mu=1e-2, n=500):
            rng = np.random.default_rng(10)
            g = 1.0 + (0.1 * np.arange(n)[:, None] / n if ramp else 0.0)
            y = g * rng.integers(0, 2, (n, 128)) + 0.02 * rng.normal(size=(n, 128))
            set_ddlms(mu, 1)
            z, bits = ddlms_update(FdeState(), fft_pow2(y))
            return np.mean(np.sum(np.abs(bits - z) ** 2, axis=-1)[n // 2 :])

        static = run(False)
        ramped = run(True)
        assert ramped <= 2.0 * static  # 3 dB
        assert run(True, mu=0.0) > 2.0 * static  # untracked, the ramp shows

    @pytest.mark.parametrize("mmse_init", [False, True], ids=["unit_taps", "mmse_taps"])
    def test_matches_per_beat_oracle(self, mmse_init, set_ddlms):
        Y, c = payload_stack(13, 8 + 600)
        for delay in (1, 2, 7, 242):
            set_ddlms(1e-3, delay)
            states = FdeState(), FdeState()
            if mmse_init:
                for state in states:
                    state.initialize(Y[:8], c[:8])
            w_0 = states[0].w.copy()
            z, bits = ddlms_update(states[0], Y[8:])
            z_ref, bits_ref = oracle_ddlms(states[1], Y[8:])
            assert z.shape == bits.shape == (600, 96)
            # the samples are O(1): atol covers the rounding of those near 0
            np.testing.assert_allclose(z, z_ref, rtol=1e-12, atol=1e-12, err_msg=f"delay {delay}")
            np.testing.assert_allclose(states[0].w, states[1].w, rtol=1e-12, atol=1e-12)
            assert np.array_equal(bits, bits_ref), delay
            assert np.max(np.abs(states[0].w - w_0)) > 1e-3, delay  # the taps moved

    def test_output_is_real(self, set_ddlms):
        # the beats are real samples and the taps real, so the full complex
        # inverse transform's imaginary part is rounding alone, and z, the
        # real inverse of the half spectra, is float64
        Y, _ = payload_stack(14, 300)
        w = np.random.default_rng(14).normal(size=LAGS.size)
        taps = np.zeros(128)
        taps[LAGS % 128] = w
        y = fft_pow2(Y, inverse=True)
        full = np.fft.ifft(np.fft.fft(y) * np.fft.fft(taps))[:, 32:]
        assert np.max(np.abs(full.imag)) <= 1e-12 * np.max(np.abs(full.real))
        z = equalize(Y, w)
        assert z.dtype == np.float64
        assert np.max(np.abs(z - full.real)) <= 1e-12 * np.max(np.abs(full.real))
        set_ddlms(1e-3, 7)
        z, _ = ddlms_update(FdeState(), Y)
        assert z.dtype == np.float64

    def test_same_bits_in_c_and_fortran_order(self):
        # the per-bin power sums each bin over the beats in one order, so the
        # steps, and everything after them, do not depend on the stack layout
        Y, c = payload_stack(16, 8 + 600)
        runs = []
        for stack in (np.ascontiguousarray(Y), np.asfortranarray(Y)):
            state = FdeState()
            state.initialize(stack[:8], c[:8])
            runs.append((*ddlms_update(state, stack[8:]), state.w))
        for got, want in zip(runs[1], runs[0]):
            assert np.array_equal(got, want)
        assert np.array_equal(_bin_steps(np.asfortranarray(Y)), _bin_steps(np.ascontiguousarray(Y)))

    def test_empty_stack(self):
        state = FdeState(w=np.arange(float(LAGS.size)))
        z, bits = ddlms_update(state, np.zeros((0, 65), complex))
        assert z.shape == bits.shape == (0, 96)
        assert np.array_equal(state.w, np.arange(float(LAGS.size)))

    def test_caller_taps_not_written(self, set_ddlms):
        # the array the state held on entry (here the tap-fit array) keeps
        # its values; the state ends with a new one
        Y, c = payload_stack(15, 8 + 20)
        set_ddlms(1e-2, 1)
        state = FdeState()
        state.initialize(Y[:8], c[:8])
        w_in = state.w
        w_fit = w_in.copy()
        ddlms_update(state, Y[8:])
        assert np.array_equal(w_in, w_fit)
        assert state.w is not w_in
        assert not np.array_equal(state.w, w_fit)

    def test_silent_beat_leaves_taps(self, set_ddlms):
        # an all-zero beat has zero power: no step, no warning
        Y, _ = payload_stack(14, 3)
        Y[1] = 0.0
        set_ddlms(1e-2, 1)
        state, ref = FdeState(), FdeState()
        ddlms_update(state, Y)
        ddlms_update(ref, Y[[0, 2]])
        assert np.array_equal(state.w, ref.w)
        assert not np.array_equal(ref.w, UNIT)


class TestDecideDemap:
    def test_clean_levels(self):
        z = np.array([0.0, 1.0, 1.0, 0.0, 1.0])
        assert list(decide_demap(z)) == [0, 1, 1, 0, 1]

    def test_all_below_threshold(self):
        assert not decide_demap(np.full(10, 0.2)).any()

    def test_fixed_half_threshold(self):
        # the slicer is z > 0.5 on the real part, for any stack shape
        z = np.array([[0.5, np.nextafter(0.5, 1.0)], [0.7 + 3j, 0.3 - 3j]])
        bits = decide_demap(z)
        assert bits.dtype == np.uint8
        assert bits.tolist() == [[0, 1], [1, 0]]

    def test_ber_matches_q_function(self):
        # AWGN on clean {0,1} levels at the fixed threshold: BER ~ Q(0.5/sigma)
        def q(x):
            return 0.5 * math.erfc(x / math.sqrt(2.0))

        rng = np.random.default_rng(12)
        n = 2_000_000
        bits = rng.integers(0, 2, n)
        sigma = 0.18
        z = bits + sigma * rng.normal(size=n)
        errors = np.count_nonzero(decide_demap(z) != bits)
        ber = errors / n
        # +-0.3 dB-equivalent band around the prediction Q(0.5/sigma)
        lo = q(0.5 / (sigma * 10 ** (-0.3 / 20)))
        hi = q(0.5 / (sigma * 10 ** (0.3 / 20)))
        assert min(lo, hi) <= ber <= max(lo, hi)
