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
from burstrx.channel import DRIFT_CHUNK, DRIFT_PAD, DRIFT_WIDTH, SAMPLE_RATE_HZ, ChannelConfig

CACHES = {
    "_fixed_preamble": framing._fixed_preamble,
    "drift_factors": channel.drift_factors,
    "lowpass_response": channel.lowpass_response,
    "rrc_response": txchain.rrc_response,
}
ARRAY_TABLES = {
    "_fixed_preamble": lambda: framing.fixed_preamble(framing.FrameLayout()),
    "drift_factors": lambda: channel.drift_factors(3672, 100.0)[1],
    "drift_reads": lambda: channel.drift_factors(3672, 100.0)[0],
    "lowpass_response": lambda: channel.lowpass_response(4000, 4.0),
    "rrc_response": lambda: txchain.rrc_response(0.1),
    "_READS": lambda: equalizer._READS,
}


def fresh_drift(x, ppm):
    """The drift of ``channel.apply_clock_drift``, each window read and filtered in place.

    Chunk ``i``'s tau splits as ``m + f`` with ``m = rint(tau)``; its window
    is read ``m`` samples earlier from the zero-padded waveform and delayed
    by ``f``.
    """
    n = len(x)
    starts = np.arange(0, n, DRIFT_CHUNK)
    tau = ppm * 1e-6 * 0.5 * (starts + np.minimum(starts + DRIFT_CHUNK, n))
    m = np.rint(tau).astype(int)
    lead = DRIFT_PAD + np.abs(m).max()
    padded = np.concatenate([np.zeros(lead), x, np.zeros(DRIFT_CHUNK + lead)])
    first = lead - DRIFT_PAD + starts - m
    windows = np.stack([padded[i : i + DRIFT_CHUNK + 2 * DRIFT_PAD] for i in first])
    shifted = channel.apply_fractional_delay(windows, (tau - m)[:, None])
    return shifted[:, DRIFT_PAD : DRIFT_PAD + DRIFT_CHUNK].reshape(-1)[:n]


def fresh_lowpass(x, f3db_ghz):
    """``channel.apply_lowpass`` with its response and length built in place."""
    n = len(x)
    m = min(
        2**a * 3**b * 5**c
        for a in range(20) for b in range(13) for c in range(9)
        if 2**a * 3**b * 5**c >= n
    )
    f = np.fft.rfftfreq(m, d=1.0 / SAMPLE_RATE_HZ)
    h = 2.0 ** (-0.5 * (f / (f3db_ghz * 1e9)) ** 2)
    return np.fft.irfft(np.fft.rfft(x, m) * h, m)[:n]


def fresh_channel(frame, cfg):
    """``channel.run_channel`` on low-pass, drift and noise, with no shared table."""
    x = fresh_lowpass(np.asarray(frame, dtype=np.float64) * cfg.gain, cfg.f3db_ghz)
    x = fresh_drift(x, cfg.clock_ppm)
    gap = np.zeros(cfg.gap_samples)
    out = np.concatenate([gap, x, gap])
    sigma = np.sqrt(np.var(x) / 10.0 ** (cfg.snr_db / 10.0))
    return out + np.random.default_rng(cfg.rng_seed).normal(0.0, sigma, size=len(out))


def clear_caches():
    for cache in CACHES.values():
        cache.cache_clear()


class TestChannelTables:
    def test_second_call_equals_fresh_build(self):
        clear_caches()
        frame = np.random.default_rng(3).integers(0, 2, 3000).astype(float)
        cfg = ChannelConfig(snr_db=14.0, clock_ppm=100.0, f3db_ghz=4.0, rng_seed=7)
        want = fresh_channel(frame, cfg)
        first = channel.run_channel(frame, cfg)
        second = channel.run_channel(frame, cfg)
        assert np.array_equal(first, want)
        assert np.array_equal(second, want)
        assert channel.drift_factors.cache_info().hits == 1
        assert channel.lowpass_response.cache_info().hits == 1

    def test_each_key_gets_its_own_table(self):
        # two ppm values, two lengths and two cut-offs in one process, each
        # call made twice: every one equals its fresh build, whatever was
        # built before it
        clear_caches()
        rng = np.random.default_rng(5)
        waves = [rng.normal(size=n) for n in (1000, 3672)]
        for _ in range(2):
            for x in waves:
                for ppm in (100.0, -250.0):
                    assert np.array_equal(channel.apply_clock_drift(x, ppm), fresh_drift(x, ppm))
                for f3db_ghz in (4.0, 6.5):
                    want = fresh_lowpass(x, f3db_ghz)
                    assert np.array_equal(channel.apply_lowpass(x, f3db_ghz), want)
        assert channel.drift_factors.cache_info().misses == 4
        assert channel.lowpass_response.cache_info().misses == 4
        tables = {id(channel.drift_factors(len(x), ppm)) for x in waves for ppm in (100.0, -250.0)}
        assert len(tables) == 4

    @pytest.mark.parametrize("n", [1, 144, 145, 3672])
    def test_drift_table_holds_one_start_per_window(self, n):
        starts, factors = channel.drift_factors(n, 100.0)
        assert starts.shape == (-(-n // DRIFT_CHUNK),)
        assert factors.shape == (len(starts), DRIFT_WIDTH // 2 + 1)

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
