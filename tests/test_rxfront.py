"""Front-end tests: slicing, Preamble-A detection, initial SPO estimate."""

import numpy as np
import pytest

from burstrx import framing, rxfront, txchain
from burstrx.fourier import fft_144
from burstrx.timing import fd_interpolate
from delay_reference import apply_fractional_delay


def preamble_waveform(offset_ui=0.0):
    lay = framing.FrameLayout(payload_len=0)
    frame = framing.build_frame(lay, np.array([], dtype=np.uint8))
    wave = txchain.tx_frame(frame)
    if offset_ui:
        wave = apply_fractional_delay(wave, offset_ui * txchain.SPS)
    return wave


def all_beats(wave):
    """Every beat of the grid from sample 0 that ``wave`` holds."""
    return rxfront.rx_slice_beats(wave, 0, len(wave) // 108)


class TestSlicing:
    def test_two_beats(self):
        beats = rxfront.rx_slice_beats(np.arange(216, dtype=float), 0, 5)
        assert beats.shape == (2, 144)

    def test_overlap_identity(self):
        rng = np.random.default_rng(0)
        x = rng.normal(size=108 * 5)
        beats = rxfront.rx_slice_beats(x, 0, 5)
        for b in range(1, 5):
            assert np.array_equal(beats[b][:36], beats[b - 1][-36:])

    def test_matches_beat_loop(self):
        # the per-beat copy loop is the reference; 7 beats plus a 50-sample tail
        x = np.random.default_rng(1).normal(size=108 * 7 + 50)
        padded = np.concatenate([np.zeros(36), x])
        ref = np.array([padded[b * 108 : b * 108 + 144] for b in range(7)])
        assert np.array_equal(rxfront.rx_slice_beats(x, 0, 7), ref)

    def test_first_beat_zero_padded(self):
        x = np.ones(108 * 2)
        beats = rxfront.rx_slice_beats(x, 0, 2)
        assert not beats[0][:36].any()

    @pytest.mark.parametrize("start", [36, 37, 108, 500])
    def test_rows_are_views_of_the_samples(self, start):
        # row j is samples[start - 36 + 108 j : start + 108 + 108 j], read
        # from the samples themselves
        x = np.random.default_rng(2).normal(size=2000)
        beats = rxfront.rx_slice_beats(x, start, 6)
        ref = np.array([x[start - 36 + 108 * j : start + 108 + 108 * j] for j in range(6)])
        assert np.array_equal(beats, ref)
        assert np.shares_memory(beats, x)
        assert not beats.flags.writeable

    @pytest.mark.parametrize("start", [0, 1, 35])
    def test_samples_before_zero_read_as_zero(self, start):
        x = np.random.default_rng(3).normal(size=1000)
        beats = rxfront.rx_slice_beats(x, start, 4)
        assert beats.shape == (4, 144)
        lead = 36 - start
        assert not beats[0, :lead].any()
        assert np.array_equal(beats[0, lead:], x[: start + 108])
        for j in range(1, 4):
            assert np.array_equal(beats[j], x[start - 36 + 108 * j : start + 108 + 108 * j])
        assert not beats.flags.writeable

    @pytest.mark.parametrize(
        "n_samples, start, n_beats, rows",
        [(1000, 500, 20, 4), (1000, 460, 20, 5), (1000, 461, 20, 4), (1000, 0, 20, 9),
         (1000, 36, 3, 3), (1000, 36, 0, 0), (107, 0, 20, 0), (143, 36, 20, 0),
         (144, 36, 20, 1), (1000, 1000, 20, 0), (1000, 2000, 20, 0)],
    )
    def test_rows_end_with_the_samples(self, n_samples, start, n_beats, rows):
        # at most n_beats rows, and a beat only when its whole body is in the samples
        beats = rxfront.rx_slice_beats(np.ones(n_samples), start, n_beats)
        assert beats.shape == (rows, 144)

    def test_tx_output_realigns(self):
        # tx beats emit 108 samples each; re-slicing walks the same grid
        wave = txchain.tx_frame(np.tile([0.0, 1.0], 48 * 4))[: 4 * 108]
        beats = all_beats(wave)
        assert beats.shape[0] == 4
        assert np.array_equal(beats[2][36:], wave[2 * 108 : 3 * 108])


class TestDetection:
    def test_clean_preamble_detected(self):
        wave = preamble_waveform()
        beats = all_beats(wave)
        X = rxfront.beat_spectra(beats, txchain.rrc_response())
        assert rxfront.detect_frame(X[1])

    def test_zero_beat_not_detected(self):
        X = fft_144(np.zeros((1, 144)))
        assert not rxfront.detect_frame(X[0])

    def test_scale_invariant(self):
        # the same mask at any scale whose powers stay inside float64, over a
        # preamble's beats and 2 000 RRC-shaped noise beats
        response = txchain.rrc_response()
        noise = np.random.default_rng(7).normal(size=(2000, 144))
        X = rxfront.beat_spectra(np.concatenate([all_beats(preamble_waveform()), noise]), response)
        mask = rxfront.detect_frame(X)
        assert mask.any() and not mask.all()
        for scale in (1e-100, 123.4, 1e100):
            assert np.array_equal(rxfront.detect_frame(X * scale), mask)

    def test_noise_false_alarm_rate(self):
        # white noise through the receive RRC, as the receiver sees the gap
        # before a burst: the unshaped beats would fire on 1.2% of them
        rng = np.random.default_rng(99)
        X = rxfront.beat_spectra(rng.normal(size=(10_000, 144)), txchain.rrc_response())
        hits = int(np.sum(rxfront.detect_frame(X)))
        assert hits / 10_000 <= 0.002

    @pytest.mark.parametrize("rolloff", [0.1, 1 / 64])
    def test_false_alarms_no_more_than_peak_search(self, rolloff):
        # 500 000 RRC-shaped white-noise beats, drawn in 10 000-beat chunks:
        # the tone-bin test fires on no more of them than the peak search it
        # replaced, whose non-DC argmax had to fall on bin 64 with a peak of
        # at least 4.0 times the floor
        def peak_search(X):
            power = np.abs(X) ** 2
            peak_bin = np.argmax(power[:, 1:], axis=-1) + 1
            peak = np.max(power[:, 1:], axis=-1)
            floor = (2 * power[:, 1:72].sum(axis=-1) - 2 * power[:, 64] + power[:, 72]) / 141
            return (peak_bin == 64) & (peak > 0) & (peak >= 4.0 * floor)

        response = txchain.rrc_response(rolloff)
        hits = reference = 0
        for seed in range(5):
            rng = np.random.default_rng(seed)
            for _ in range(10):
                X = rxfront.beat_spectra(rng.normal(size=(10_000, 144)), response)
                hits += int(np.sum(rxfront.detect_frame(X)))
                reference += int(np.sum(peak_search(X)))
        assert 0 < hits <= reference

    def test_stack_matches_beat_loop(self):
        # the per-beat detector is the reference, on noise, a preamble and a
        # silent beat, which is not detected; its floor is the mean of
        # the 141 full-spectrum bins off DC and the tone pair 64 / 80, the
        # half-spectrum bins 1..71 but 64 once for themselves and once for
        # their mirrors, and the Nyquist bin 72 once
        def detect_one(x):
            power = np.abs(x) ** 2
            off = np.delete(power[1:72], 63)
            mean_off = float((2 * np.sum(off) + power[72]) / 141)
            tone = power[64]
            return tone > 0 and tone >= rxfront.DETECT_POWER_FACTOR * mean_off

        noise = fft_144(np.random.default_rng(98).normal(size=(10_000, 144)))
        beats = all_beats(preamble_waveform())
        X = np.concatenate(
            [noise, rxfront.beat_spectra(beats, txchain.rrc_response()), np.zeros((1, 73))]
        )
        stacked = rxfront.detect_frame(X)
        assert np.array_equal(stacked, [detect_one(x) for x in X])
        assert not stacked[-1]
        assert stacked[10_000:].any()


class TestInitialSpo:
    def test_zero_offset_pure_tone(self):
        # interior beat of a long alternating stream: window content is exactly
        # periodic, so the estimate is zero to numerical precision
        wave = txchain.tx_frame(np.tile([0.0, 1.0], 48 * 8))[: 8 * 108]
        X = rxfront.beat_spectra(all_beats(wave), txchain.rrc_response())
        tau0 = rxfront.estimate_initial_spo(X[4])
        assert rxfront.detect_frame(X[4])
        assert abs(tau0) < 1e-9

    def test_zero_offset_frame(self):
        # in the real frame the following preamble leaks tails into the window
        # edge; the estimate stays well under the 0.01 UI budget
        wave = preamble_waveform()
        X = rxfront.beat_spectra(all_beats(wave), txchain.rrc_response())
        tau0 = rxfront.estimate_initial_spo(X[1])
        assert rxfront.detect_frame(X[1])
        assert abs(tau0) / txchain.SPS < 1e-3

    @pytest.mark.parametrize("offset", np.linspace(-0.4, 0.4, 9))
    def test_closed_loop_compensation(self, offset):
        # apply tau0 with the FD interpolator and re-estimate: the residual
        # must be near zero, pinning sign and units of the estimate
        wave = preamble_waveform(offset_ui=offset)
        beats = all_beats(wave)
        X = rxfront.beat_spectra(beats, txchain.rrc_response())
        tau0 = rxfront.estimate_initial_spo(X[1])
        corrected = fd_interpolate(X[1], tau0)
        resid = rxfront.estimate_initial_spo(corrected)
        assert abs(resid) / txchain.SPS <= 0.01

    def test_estimate_tracks_injected_offset(self):
        # tau0 should equal -offset (in samples) up to edge leakage
        for offset in (-0.3, 0.2):
            wave = preamble_waveform(offset_ui=offset)
            beats = all_beats(wave)
            X = rxfront.beat_spectra(beats, txchain.rrc_response())
            tau0 = rxfront.estimate_initial_spo(X[1])
            assert abs(tau0 - (-offset * txchain.SPS)) < 0.02

    def test_periodic_in_one_ui(self):
        # offsets d and d+1 UI are indistinguishable modulo the wrap range
        taus = []
        for offset in (0.2, 1.2):
            wave = preamble_waveform(offset_ui=offset)
            beats = all_beats(wave)
            X = rxfront.beat_spectra(beats, txchain.rrc_response())
            taus.append(rxfront.estimate_initial_spo(X[1]))
        assert abs(taus[0] - taus[1]) < 0.02

    def test_scale_invariant(self):
        wave = preamble_waveform(offset_ui=0.25)
        beats = all_beats(wave)
        X = rxfront.beat_spectra(beats, txchain.rrc_response())
        t1 = rxfront.estimate_initial_spo(X[1])
        t2 = rxfront.estimate_initial_spo(X[1] * 7.7)
        assert abs(t1 - t2) < 1e-12

    def test_stack_sums_tone_products(self):
        # a stack gives the phase of the summed tone-pair product
        # X(64) conj(X(80)) = X(64)^2, so each beat counts with its tone
        # power; one row is the one-beat value
        wave = preamble_waveform(offset_ui=0.25)
        X = rxfront.beat_spectra(all_beats(wave), txchain.rrc_response())
        stack = X[1:3]
        prod = sum(x[64] ** 2 for x in stack)
        expected = txchain.SPS / (2 * np.pi) * np.angle(prod)
        assert abs(rxfront.estimate_initial_spo(stack) - expected) < 1e-12
        one = rxfront.estimate_initial_spo(X[1:2])
        assert one == txchain.SPS / (2 * np.pi) * float(np.angle(X[1, 64] ** 2))
        assert one == rxfront.estimate_initial_spo(X[1])
