"""Tables built once per key: bounded, read-only, and equal to a fresh build.

Each table here depends only on the configuration or the waveform length, so
the chain builds it on first use and every later burst with the same key
shares it.  A shared table must give what building it afresh gives, keep
one entry per key, refuse writes, and hold a bounded number of entries.
The tap fit's read table, ``equalizer._READS``, depends on neither and is
built once at import; it too must refuse writes.
"""

import numpy as np
import pytest

from burstrx import channel, equalizer, framing, txchain
from burstrx.channel import (CHANNEL_BLOCK, DRIFT_CHUNK, DRIFT_PAD, DRIFT_WIDTH, SAMPLE_RATE_HZ,
                             ChannelConfig)
from delay_reference import delay_factor

# the one channel cache, window_factors, holds the drift's table and the low-pass response
CACHES = {
    "_fixed_preamble": framing._fixed_preamble,
    "drift_factors": channel.window_factors,
    "lowpass_response": channel.window_factors,
    "rrc_response": txchain.rrc_response,
}
ARRAY_TABLES = {
    "_fixed_preamble": lambda: framing.fixed_preamble(framing.FrameLayout()),
    "drift_factors": lambda: channel.window_factors(3672, None, 0.0, 100.0)[1],
    "drift_reads": lambda: channel.window_factors(3672, None, 0.0, 100.0)[0],
    "lowpass_response": lambda: channel.window_factors(3672, 4.0, 0.0, 0.0)[1],
    "rrc_response": lambda: txchain.rrc_response(0.1),
    "_READS": lambda: equalizer._READS,
}


def gaussian(f3db_ghz, n):
    """``rfft``-domain Gaussian low-pass of an ``n``-sample block, 3 dB down at ``f3db_ghz``."""
    f = np.fft.rfftfreq(n, d=1.0 / SAMPLE_RATE_HZ)
    return 2.0 ** (-0.5 * (f / (f3db_ghz * 1e9)) ** 2)


def fresh_windows(x, f3db_ghz, offset_samples, ppm):
    """The filter of ``channel.run_channel``, each window read and filtered in place.

    Chunk ``i``'s tau, ``offset_samples`` plus the drift at its centre,
    splits as ``m + f`` with ``m = rint(tau)``; its window is read ``m``
    samples earlier from the zero-padded waveform and filtered by
    ``delay_reference.delay_factor`` at ``f``, times the Gaussian response
    when ``f3db_ghz`` is set.  That general factor keeps whole-sample delays
    exact at the Nyquist bin; ``channel.window_factors`` sets the bin to 1,
    which is the value it gives for every ``|f| <= 1/2``.
    """
    n = len(x)
    starts = np.arange(0, n, DRIFT_CHUNK)
    tau = offset_samples + ppm * 1e-6 * 0.5 * (starts + np.minimum(starts + DRIFT_CHUNK, n))
    m = np.rint(tau).astype(int)
    lead = DRIFT_PAD + np.abs(m).max()
    padded = np.concatenate([np.zeros(lead), x, np.zeros(DRIFT_CHUNK + lead)])
    first = lead - DRIFT_PAD + starts - m
    windows = np.stack([padded[i : i + DRIFT_WIDTH] for i in first])
    h = delay_factor(DRIFT_WIDTH, (tau - m)[:, None])
    if f3db_ghz is not None:
        h = h * gaussian(f3db_ghz, DRIFT_WIDTH)
    shifted = np.fft.irfft(np.fft.rfft(windows) * h, DRIFT_WIDTH)
    return shifted[:, DRIFT_PAD : DRIFT_PAD + DRIFT_CHUNK].reshape(-1)[:n]


def fresh_lowpass(x, f3db_ghz):
    """The Gaussian low-pass over the whole waveform, zero-padded to a 5-smooth length."""
    n = len(x)
    m = min(
        2**a * 3**b * 5**c
        for a in range(20) for b in range(13) for c in range(9)
        if 2**a * 3**b * 5**c >= n
    )
    return np.fft.irfft(np.fft.rfft(x, m) * gaussian(f3db_ghz, m), m)[:n]


def fresh_channel(frame, cfg):
    """``channel.run_channel`` with every impairment on, with no shared table."""
    x = fresh_windows(np.asarray(frame, dtype=np.float64) * cfg.gain, cfg.f3db_ghz,
                      cfg.timing_offset_ui * txchain.SPS, cfg.clock_ppm)
    gap = np.zeros(cfg.gap_samples)
    out = np.concatenate([gap, x, gap])
    sigma = np.sqrt(np.var(x) / 10.0 ** (cfg.snr_db / 10.0))
    return out + np.random.default_rng(cfg.rng_seed).normal(0.0, sigma, size=len(out))


def windows_only(x, f3db_ghz, offset_samples, ppm):
    """``channel.run_channel`` of ``x`` with these filter settings, no gaps and no noise."""
    cfg = ChannelConfig(f3db_ghz=f3db_ghz, timing_offset_ui=offset_samples / txchain.SPS,
                        clock_ppm=ppm, gap_samples=0)
    return channel.run_channel(x, cfg)


def tx_wave(payload_len, seed):
    layout = framing.FrameLayout(payload_len=payload_len)
    return txchain.tx_frame(framing.build_frame(layout, framing.gen_payload_bits(layout, seed)))


def clear_caches():
    for cache in CACHES.values():
        cache.cache_clear()


class TestChannelTables:
    def test_second_call_equals_fresh_build(self):
        clear_caches()
        frame = np.random.default_rng(3).integers(0, 2, 3000).astype(float)
        cfg = ChannelConfig(snr_db=14.0, timing_offset_ui=-2.7, clock_ppm=100.0, f3db_ghz=4.0,
                            gain=0.7, rng_seed=7)
        want = fresh_channel(frame, cfg)
        first = channel.run_channel(frame, cfg)
        second = channel.run_channel(frame, cfg)
        assert np.array_equal(first, want)
        assert np.array_equal(second, want)
        assert channel.window_factors.cache_info().hits == 1

    def test_each_key_gets_its_own_table(self):
        # two lengths and two settings (drift alone; low-pass and offset
        # without drift) in one process, each call made twice: every one
        # equals its fresh build, whatever was built before it
        clear_caches()
        rng = np.random.default_rng(5)
        waves = [rng.normal(size=n) for n in (1000, 3672)]
        keys = [(None, 0.0, 100.0), (6.5, -3.0375, 0.0)]
        for _ in range(2):
            for x in waves:
                for key in keys:
                    assert np.array_equal(windows_only(x, *key), fresh_windows(x, *key))
        assert channel.window_factors.cache_info().misses == len(waves) * len(keys)
        tables = {id(channel.window_factors(len(x), *key)) for x in waves for key in keys}
        assert len(tables) == len(waves) * len(keys)

    @pytest.mark.parametrize("n", [1, 144, 145, 3672])
    def test_drift_table_holds_one_start_per_window(self, n):
        starts, factors = channel.window_factors(n, 4.0, 0.3375, 100.0)
        assert starts.shape == (-(-n // DRIFT_CHUNK),)
        assert factors.shape == (len(starts), DRIFT_WIDTH // 2 + 1)

    @pytest.mark.parametrize("f3db_ghz, offset_samples",
                             [(4.0, 0.0), (None, -0.3375), (6.5, 3.0375)])
    def test_no_drift_holds_one_factor_row(self, f3db_ghz, offset_samples):
        # every chunk has the same tau: one row in memory, broadcast to every window
        clear_caches()
        starts, factors = channel.window_factors(35_316, f3db_ghz, offset_samples, 0.0)
        assert factors.shape == (len(starts), DRIFT_WIDTH // 2 + 1)
        assert factors.strides[0] == 0
        frac = np.full((len(starts), 1), offset_samples - np.rint(offset_samples))
        want = delay_factor(DRIFT_WIDTH, frac)
        if f3db_ghz is not None:
            want = want * gaussian(f3db_ghz, DRIFT_WIDTH)
        assert np.array_equal(factors, want)

    # frames that end just before, on and just past an edge of CHANNEL_BLOCK
    # windows, and one that runs into a third block
    @pytest.mark.parametrize("n", [CHANNEL_BLOCK * DRIFT_CHUNK + d for d in (-1, 0, 1)]
                             + [2 * CHANNEL_BLOCK * DRIFT_CHUNK + DRIFT_CHUNK + 1])
    @pytest.mark.parametrize("impairments", [{"f3db_ghz": 4.0}, {"timing_offset_ui": -0.3}],
                             ids=["lowpass", "offset"])
    def test_no_drift_equals_fresh_build(self, n, impairments):
        clear_caches()
        frame = np.random.default_rng(n).normal(size=n)
        cfg = ChannelConfig(snr_db=20.0, rng_seed=n, **impairments)
        assert np.array_equal(channel.run_channel(frame, cfg), fresh_channel(frame, cfg))

    # The windows against the whole-frame low-pass, as a share of the
    # frame's RMS: 2.5e-7 at 3 GHz to 2.6e-5 at 8 GHz on these frames.
    @pytest.mark.parametrize("f3db_ghz", [3.0, 4.0, 8.0, 12.0, 20.0])
    @pytest.mark.parametrize("payload_len", [1920, 30_000])
    def test_windows_match_whole_frame_lowpass(self, f3db_ghz, payload_len):
        x = tx_wave(payload_len, 7)
        err = np.max(np.abs(windows_only(x, f3db_ghz, 0.0, 0.0) - fresh_lowpass(x, f3db_ghz)))
        assert err < 3e-5 * np.sqrt(np.mean(x**2))

    def test_rrc_response_equals_fresh_build(self):
        f = txchain.FREQ_SYMBOL_144
        for rolloff in (1 / 64, 0.1, 0.125):
            mag = np.sqrt(txchain.rc_magnitude(f, rolloff))
            want = mag * np.exp(-2j * np.pi * f * txchain.DEFAULT_DELAY_SYMBOLS)
            assert np.array_equal(txchain.rrc_response(rolloff), want)


@pytest.mark.parametrize("name", sorted(ARRAY_TABLES))
def test_shared_table_refuses_writes(name):
    table = ARRAY_TABLES[name]()
    with pytest.raises(ValueError):
        table[0] = table[0]


@pytest.mark.parametrize("name", sorted(CACHES))
def test_cache_is_bounded(name):
    maxsize = CACHES[name].cache_info().maxsize
    assert isinstance(maxsize, int) and maxsize > 0
