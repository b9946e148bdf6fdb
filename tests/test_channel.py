"""Impairment model tests: each block, its neutral point, and determinism."""

import hashlib

import numpy as np
import pytest

from burstrx import channel, framing, txchain
from burstrx.channel import SNR_DB_LIMIT, ChannelConfig
from burstrx.errors import ChannelError
from delay_reference import apply_fractional_delay


@pytest.fixture
def wave():
    rng = np.random.default_rng(1)
    return rng.normal(size=4096)


class TestFractionalDelay:
    """The whole-block reference delay of delay_reference, which the tests below trust."""

    def test_zero_is_identity(self, wave):
        assert np.max(np.abs(apply_fractional_delay(wave, 0.0) - wave)) < 1e-12

    def test_integer_delay_is_circular_shift(self, wave):
        out = apply_fractional_delay(wave, 1.0)
        assert np.max(np.abs(out - np.roll(wave, 1))) < 1e-9

    def test_tone_phase(self):
        n = 4096
        k = 37
        t = np.arange(n)
        x = np.cos(2 * np.pi * k * t / n)
        tau = 0.37
        out = apply_fractional_delay(x, tau)
        X = np.fft.rfft(out)
        expect = -2 * np.pi * (k / n) * tau
        got = np.angle(X[k])
        assert abs((got - expect + np.pi) % (2 * np.pi) - np.pi) < 1e-9


class TestLowpass:
    def test_dc_gain(self):
        _, factors = channel.window_factors(1024, 10.0, 0.0, 0.0)
        assert np.all(factors[:, 0] == 1.0)

    def test_half_power_at_f3db(self):
        # bin k of a window sits at f3db exactly
        k = 40
        f_k = k / channel.DRIFT_WIDTH * channel.SAMPLE_RATE_HZ
        _, factors = channel.window_factors(1024, f_k / 1e9, 0.0, 0.0)
        assert np.max(np.abs(np.abs(factors[:, k]) - 1 / np.sqrt(2))) < 1e-12

    @pytest.mark.parametrize("f3db_ghz, tol", [(3.0, 1e-12), (4.0, 1e-11)])
    def test_impulse_response_at_any_length(self, f3db_ghz, tol):
        # 35 316 = 2**2 3**4 109 samples, the lowpass_mmse waveform, and
        # 34 992 = 2**4 3**7: an impulse far from both ends sees the same
        # windows at either length, and no output sample more than a window
        # away from it
        pos = 17_000
        long, short = np.zeros(35_316), np.zeros(34_992)
        long[pos] = short[pos] = 1.0
        cfg = ChannelConfig(f3db_ghz=f3db_ghz, gap_samples=0)
        out_long = channel.run_channel(long, cfg)
        out_short = channel.run_channel(short, cfg)
        assert len(out_long) == 35_316
        assert np.max(np.abs(out_long[: len(short)] - out_short)) < tol
        assert out_long[pos] > 0.1
        reach = np.flatnonzero(out_long)
        assert pos - reach[0] <= channel.DRIFT_WIDTH and reach[-1] - pos <= channel.DRIFT_WIDTH

    def test_monotone_decreasing(self):
        _, factors = channel.window_factors(1024, 10.0, 0.0, 0.0)
        assert np.all(np.diff(factors.real, axis=1) < 0)
        assert not factors.imag.any()

    @pytest.mark.parametrize("f3db_ghz", [0.0, -4.0])
    def test_nonpositive_cutoff_rejected(self, f3db_ghz):
        with pytest.raises(ChannelError):
            ChannelConfig(f3db_ghz=f3db_ghz)


class TestAwgn:
    @pytest.mark.parametrize("gain", [0.01, 1.0, 100.0])
    def test_measured_snr(self, gain):
        # the noise follows the frame's power after the gain, and the gaps
        # around it do not dilute that power
        x = 0.5 + np.random.default_rng(7).normal(size=10**6)
        cfg = ChannelConfig(snr_db=10.0, gain=gain, gap_samples=100_000, rng_seed=3)
        out = channel.run_channel(x, cfg)
        noise = out[100_000:-100_000] - gain * x
        snr_meas = 10 * np.log10(np.var(gain * x) / np.mean(noise**2))
        assert abs(snr_meas - 10.0) < 0.1

    def test_zero_signal_rejected(self):
        # a constant frame has power, but no mean-removed power
        for frame in (np.zeros(100), np.full(100, 0.5)):
            with pytest.raises(ChannelError):
                channel.run_channel(frame, ChannelConfig(snr_db=10.0))

    @pytest.mark.parametrize("n", [1, 2, 3, 127, 128, 129, 1000, 30_001, 300_001])
    def test_power_equals_two_pass_mean(self, n):
        # sigma comes from the two-pass mean-removed power of the frame's
        # span alone, and one draw of default_rng(rng_seed) covers the whole
        # capture, gaps included
        x = 0.5 + np.random.default_rng(n).normal(size=n)
        two_pass = float(np.mean((x - x.mean()) ** 2))
        cfg = ChannelConfig(snr_db=10.0, gap_samples=50, rng_seed=n)
        if n == 1:
            assert two_pass == 0.0  # one sample has no mean-removed power
            with pytest.raises(ChannelError):
                channel.run_channel(x, cfg)
            return
        sigma_ref = np.sqrt(two_pass / 10.0 ** (10.0 / 10.0))
        noise = np.random.default_rng(n).normal(0.0, sigma_ref, n + 100)
        want = np.concatenate([np.zeros(50), x, np.zeros(50)]) + noise
        assert np.array_equal(channel.run_channel(x, cfg), want)

    @pytest.mark.parametrize("snr_db", [-SNR_DB_LIMIT, SNR_DB_LIMIT])
    def test_snr_limits_give_finite_captures(self, snr_db, wave):
        out = channel.run_channel(wave, ChannelConfig(snr_db=snr_db, gap_samples=10))
        assert np.all(np.isfinite(out))


def tx_wave():
    """The transmitted samples of a 1 920-bit frame, payload seed 1000."""
    layout = framing.FrameLayout(payload_len=1920)
    return txchain.tx_frame(framing.build_frame(layout, framing.gen_payload_bits(layout, 1000)))


NON_FINITE = [
    (name, value)
    for name in ("timing_offset_ui", "clock_ppm", "gain")
    for value in (np.nan, np.inf, -np.inf)
]


class TestRunChannel:
    def test_all_off_identity(self, wave):
        cfg = ChannelConfig(gap_samples=0)
        out = channel.run_channel(wave, cfg)
        assert np.max(np.abs(out - wave)) < 1e-12

    def test_gap_length(self, wave):
        cfg = ChannelConfig(gap_samples=1000)
        assert len(channel.run_channel(wave, cfg)) == len(wave) + 2000

    def test_neutral_parameters_identity(self, wave):
        cfg = ChannelConfig(
            snr_db=None, timing_offset_ui=0.0, clock_ppm=0.0,
            f3db_ghz=None, gain=1.0, gap_samples=0,
        )
        out = channel.run_channel(wave, cfg)
        assert np.max(np.abs(out - wave)) < 1e-12

    # Against the exact delay of the zero-padded frame, over the frame's
    # span (the gaps are test_noiseless_gaps_stay_silent's): the windowed
    # filter truncates a fractional delay's response to DRIFT_WIDTH samples,
    # 9.6e-3 of RMS at 0.3 UI (a 0.34-sample fraction) and 7.0e-4 at 2.7 UI
    # (0.04) on this frame.
    OFFSET_BOUND = {-0.3: 1e-2, 0.3: 1e-2, 2.7: 8e-4}

    @pytest.mark.parametrize("offset_ui", sorted(OFFSET_BOUND))
    def test_offset_matches_padded_delay(self, offset_ui):
        wave = tx_wave()
        gap = np.zeros(500)
        want = apply_fractional_delay(np.concatenate([gap, wave, gap]), offset_ui * txchain.SPS)
        out = channel.run_channel(wave, ChannelConfig(timing_offset_ui=offset_ui, gap_samples=500))
        rms = np.sqrt(np.mean(wave**2))
        assert np.max(np.abs(out - want)[500:-500]) < self.OFFSET_BOUND[offset_ui] * rms

    def test_whole_sample_offset_reads_silence(self):
        # -8 UI is 9 whole samples early: the frame's first 9 samples leave
        # it, and its last 9 read the silence past its end, not its head
        wave = tx_wave()
        out = channel.run_channel(wave, ChannelConfig(timing_offset_ui=-8.0, gap_samples=500))
        want = np.concatenate([wave[9:], np.zeros(9)])
        assert np.max(np.abs(out[500:-500] - want)) < 1e-12

    def test_determinism(self, wave):
        cfg = ChannelConfig(snr_db=12.0, rng_seed=5)
        a = channel.run_channel(wave, cfg)
        b = channel.run_channel(wave, cfg)
        assert np.array_equal(a, b)

    @pytest.mark.parametrize("f3db_ghz", [0.0, np.inf])
    def test_bad_lowpass_rejected(self, f3db_ghz):
        with pytest.raises(ChannelError):
            ChannelConfig(f3db_ghz=f3db_ghz)

    @pytest.mark.parametrize(
        "kwargs",
        [{"gap_samples": -1}, {"snr_db": np.inf}, {"snr_db": np.nan},
         {"snr_db": 4000.0}, {"snr_db": -4000.0}]
        + [{name: value} for name, value in NON_FINITE],
        ids=["gap_negative", "snr_db_inf", "snr_db_nan", "snr_db_4000", "snr_db_-4000"]
        + [f"{name}_{value}" for name, value in NON_FINITE],
    )
    def test_bad_impairments_rejected(self, kwargs):
        # built directly, without the config loader's type checks in front;
        # unchecked, a NaN drift or gain gives an all-NaN capture, an
        # infinite offset or gain a RuntimeWarning inside run_channel, and
        # an SNR of +-4 000 dB an OverflowError or ZeroDivisionError there
        with pytest.raises(ChannelError):
            channel.Impairments(**kwargs)


# sha256 of run_channel on tx_frame of a 1 920-bit frame (payload seed 1000);
# all_on is the one windowed filter's output, which tests/test_tables.py's
# fresh_channel builds bit for bit without the shared table
CHANNEL_DIGESTS = {
    "all_on": "8648ddeb245df937543d6a134514fcd8890760317fb3fe964ebd97a0147825da",
    "all_off": "90c8d6cedfea953e9da25f384e314693ee6c8ac36611cb6289aa28d9c1018c83",
}
CHANNEL_CONFIGS = {
    "all_on": ChannelConfig(snr_db=14.0, timing_offset_ui=-0.3, clock_ppm=100.0, f3db_ghz=8.0,
                            gap_samples=500, gain=0.7, rng_seed=3),
    "all_off": ChannelConfig(gap_samples=1080),
}


@pytest.mark.parametrize("name", sorted(CHANNEL_DIGESTS))
def test_capture_pinned(name):
    layout = framing.FrameLayout(payload_len=1920)
    wave = txchain.tx_frame(framing.build_frame(layout, framing.gen_payload_bits(layout, 1000)))
    sent = wave.copy()
    out = channel.run_channel(wave, CHANNEL_CONFIGS[name])
    assert np.array_equal(wave, sent)  # the input is not modified
    assert len(out) == len(wave) + 2 * CHANNEL_CONFIGS[name].gap_samples
    assert hashlib.sha256(out.tobytes()).hexdigest() == CHANNEL_DIGESTS[name]


NOISELESS_IMPAIRMENTS = {
    "lowpass": {"f3db_ghz": 4.0},
    "offset_frac_pos": {"timing_offset_ui": 0.3},
    "offset_frac_neg": {"timing_offset_ui": -0.3},
    "offset_whole_pos": {"timing_offset_ui": 8.0},
    "offset_whole_neg": {"timing_offset_ui": -8.0},
    "drift": {"clock_ppm": 300.0},
    "gain": {"gain": 0.7},
    "all": {"f3db_ghz": 4.0, "timing_offset_ui": -0.3, "clock_ppm": -300.0, "gain": 2.5},
}


@pytest.mark.parametrize("name", sorted(NOISELESS_IMPAIRMENTS))
def test_noiseless_gaps_stay_silent(name):
    # every filter acts on the frame alone, so without noise nothing of the
    # frame leaks into the gaps spliced around it; 8 UI is 9 whole samples
    layout = framing.FrameLayout(payload_len=1920)
    wave = txchain.tx_frame(framing.build_frame(layout, framing.gen_payload_bits(layout, 1000)))
    cfg = ChannelConfig(gap_samples=500, **NOISELESS_IMPAIRMENTS[name])
    out = channel.run_channel(wave, cfg)
    assert not out[:500].any() and not out[-500:].any()
    assert out[500:-500].any()


def drift(x, ppm):
    """The capture of ``x`` with clock drift alone and no gaps."""
    return channel.run_channel(x, ChannelConfig(clock_ppm=ppm, gap_samples=0))


class TestClockDrift:
    def test_zero_identity(self, wave):
        assert np.array_equal(drift(wave, 0.0), wave)

    @pytest.mark.parametrize("n", [4096 + 100, 300, 0], ids=["partial_chunk", "short", "empty"])
    def test_matches_per_chunk_delay(self, n):
        # each chunk's tau splits as m + f with m = rint(tau): the chunk's
        # window is read m samples earlier from the zero-padded waveform and
        # delayed by f; at 1 000 ppm m reaches 4 here, at -1 000 ppm -4
        x = np.random.default_rng(2).normal(size=n)
        chunk, pad = channel.DRIFT_CHUNK, channel.DRIFT_PAD
        lead = pad + 16  # more than any |m| at these lengths
        padded = np.concatenate([np.zeros(lead), x, np.zeros(chunk + lead)])
        for ppm in (1000.0, -1000.0):
            expect = np.empty(n)
            for start in range(0, n, chunk):
                stop = min(start + chunk, n)
                tau = ppm * 1e-6 * 0.5 * (start + stop)
                m = round(tau)
                first = lead - pad + start - m
                window = padded[first : first + chunk + 2 * pad]
                delayed = apply_fractional_delay(window, tau - m)
                expect[start:stop] = delayed[pad : pad + stop - start]
            out = drift(x, ppm)
            assert out.shape == (n,)
            assert np.max(np.abs(out - expect), initial=0.0) < 1e-12

    @staticmethod
    def tone_error(ppm, n):
        """Largest error of a drifted 0.45 cycle/sample tone against the true ramp.

        The first and last 1 024 samples, and the samples the drift moves
        past the waveform's end, are left out: the drift reads silence there.
        """
        t = np.arange(n)
        freq = 0.45
        out = drift(np.cos(2 * np.pi * freq * t), ppm)
        want = np.cos(2 * np.pi * freq * (t - ppm * 1e-6 * t))
        edge = 1024 + int(abs(ppm) * 1e-6 * n)
        return np.max(np.abs(out - want)[edge : n - edge])

    # The drift is a staircase: within a chunk tau is off the ramp by up to
    # ppm * 1e-6 * 72 samples, which turns this tone by up to 0.20 rad at
    # 1 000 ppm.  The bounds hold that and the window's truncation.
    TONE_BOUND = {100.0: 0.045, 1000.0: 0.25, -1000.0: 0.25}

    @pytest.mark.parametrize("ppm", sorted(TONE_BOUND))
    def test_tone_follows_the_ramp(self, ppm):
        assert self.tone_error(ppm, 8192) < self.TONE_BOUND[ppm]

    @pytest.mark.parametrize("ppm", [1000.0, -1000.0])
    def test_delay_past_the_pad(self, ppm):
        # 400 samples of delay at the end, more than DRIFT_PAD: the integer
        # part is a shifted read, so no window reads wrapped samples
        n = 400_000
        assert abs(ppm) * 1e-6 * n > channel.DRIFT_PAD
        assert self.tone_error(ppm, n) < self.TONE_BOUND[ppm]

    @pytest.mark.parametrize("ppm", [1e30, -1e30])
    def test_any_finite_ppm(self, ppm):
        # every window moves further than the waveform is long and reads
        # silence; the read index must not overflow into a cast warning
        for n in (1, 1000):
            assert np.array_equal(drift(np.ones(n), ppm), np.zeros(n))

    def test_drift_shifts_late_samples_more(self):
        # a tone's local delay near the end should be ~ppm*1e-6*t samples;
        # a low tone frequency keeps the measured phase unwrapped
        n = 40960
        t = np.arange(n)
        freq = 16 / 4096
        x = np.cos(2 * np.pi * freq * t)
        ppm = 200.0
        out = drift(x, ppm)
        seg = slice(n - 4096, n)
        X = np.fft.rfft(x[seg])
        Y = np.fft.rfft(out[seg])
        k = np.argmax(np.abs(X))
        dphi = np.angle(Y[k] / X[k])
        delay = -dphi / (2 * np.pi * k / 4096)
        expect = ppm * 1e-6 * (n - 2048)
        assert abs(delay - expect) < 0.2 * expect + 0.05
