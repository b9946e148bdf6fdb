"""Front-end tests: slicing, Preamble-A detection, initial SPO estimate."""

import numpy as np
import pytest

from burstrx import channel, framing, rxfront, txchain
from burstrx.timing import fd_interpolate


def preamble_waveform(offset_ui=0.0):
    lay = framing.FrameLayout(payload_len=0)
    frame = framing.build_frame(lay, np.array([], dtype=np.uint8))
    wave = txchain.tx_frame(frame)
    if offset_ui:
        wave = channel.apply_fractional_delay(wave, offset_ui * txchain.SPS)
    return wave


class TestSlicing:
    def test_two_beats(self):
        beats = rxfront.rx_slice_beats(np.arange(216, dtype=float))
        assert beats.shape == (2, 144)

    def test_overlap_identity(self):
        rng = np.random.default_rng(0)
        x = rng.normal(size=108 * 5)
        beats = rxfront.rx_slice_beats(x)
        for b in range(1, 5):
            assert np.array_equal(beats[b][:36], beats[b - 1][-36:])

    def test_matches_beat_loop(self):
        # the per-beat copy loop is the reference; 7 beats plus a 50-sample tail
        x = np.random.default_rng(1).normal(size=108 * 7 + 50)
        padded = np.concatenate([np.zeros(36), x])
        ref = np.array([padded[b * 108 : b * 108 + 144] for b in range(7)])
        assert np.array_equal(rxfront.rx_slice_beats(x), ref)

    def test_first_beat_zero_padded(self):
        x = np.ones(108 * 2)
        beats = rxfront.rx_slice_beats(x)
        assert not beats[0][:36].any()

    def test_tx_output_realigns(self):
        # tx beats emit 108 samples each; re-slicing walks the same grid
        wave = txchain.tx_frame(np.tile([0.0, 1.0], 48 * 4), flush_beats=0)
        beats = rxfront.rx_slice_beats(wave)
        assert beats.shape[0] == 4
        assert np.array_equal(beats[2][36:], wave[2 * 108 : 3 * 108])


class TestDetection:
    def test_clean_preamble_detected(self):
        wave = preamble_waveform()
        beats = rxfront.rx_slice_beats(wave)
        X = rxfront.beat_spectra(beats, txchain.rrc_response())
        res = rxfront.detect_frame(X[1])
        assert res.detected
        assert res.peak_bin in (64, 80)

    def test_zero_beat_not_detected(self):
        X = rxfront.beat_spectra(np.zeros((1, 144)))
        assert not rxfront.detect_frame(X[0]).detected

    def test_scale_invariant(self):
        wave = preamble_waveform()
        beats = rxfront.rx_slice_beats(wave)
        X = rxfront.beat_spectra(beats, txchain.rrc_response())
        a = rxfront.detect_frame(X[1])
        b = rxfront.detect_frame(X[1] * 123.4)
        assert (a.detected, a.peak_bin) == (b.detected, b.peak_bin)

    def test_noise_false_alarm_rate(self):
        rng = np.random.default_rng(99)
        noise = rng.normal(size=(10_000, 144))
        X = rxfront.beat_spectra(noise)
        hits = sum(rxfront.detect_frame(x).detected for x in X)
        assert hits / 10_000 <= 2 / 143 + 0.01


class TestInitialSpo:
    def test_zero_offset_pure_tone(self):
        # interior beat of a long alternating stream: window content is exactly
        # periodic, so the estimate is zero to numerical precision
        wave = txchain.tx_frame(np.tile([0.0, 1.0], 48 * 8), flush_beats=0)
        X = rxfront.beat_spectra(rxfront.rx_slice_beats(wave), txchain.rrc_response())
        tau0, confident = rxfront.estimate_initial_spo(X[4])
        assert confident
        assert abs(tau0) < 1e-9

    def test_zero_offset_frame(self):
        # in the real frame the following preamble leaks tails into the window
        # edge; the estimate stays well under the 0.01 UI budget
        wave = preamble_waveform()
        X = rxfront.beat_spectra(rxfront.rx_slice_beats(wave), txchain.rrc_response())
        tau0, confident = rxfront.estimate_initial_spo(X[1])
        assert confident
        assert abs(tau0) / txchain.SPS < 1e-3

    @pytest.mark.parametrize("offset", np.linspace(-0.4, 0.4, 9))
    def test_closed_loop_compensation(self, offset):
        # apply tau0 with the FD interpolator and re-estimate: the residual
        # must be near zero, pinning sign and units of the estimate
        wave = preamble_waveform(offset_ui=offset)
        beats = rxfront.rx_slice_beats(wave)
        X = rxfront.beat_spectra(beats, txchain.rrc_response())
        tau0, _ = rxfront.estimate_initial_spo(X[1])
        corrected = fd_interpolate(X[1], tau0)
        resid, _ = rxfront.estimate_initial_spo(corrected)
        assert abs(resid) / txchain.SPS <= 0.01

    def test_estimate_tracks_injected_offset(self):
        # tau0 should equal -offset (in samples) up to edge leakage
        for offset in (-0.3, 0.2):
            wave = preamble_waveform(offset_ui=offset)
            beats = rxfront.rx_slice_beats(wave)
            X = rxfront.beat_spectra(beats, txchain.rrc_response())
            tau0, _ = rxfront.estimate_initial_spo(X[1])
            assert abs(tau0 - (-offset * txchain.SPS)) < 0.02

    def test_periodic_in_one_ui(self):
        # offsets d and d+1 UI are indistinguishable modulo the wrap range
        taus = []
        for offset in (0.2, 1.2):
            wave = preamble_waveform(offset_ui=offset)
            beats = rxfront.rx_slice_beats(wave)
            X = rxfront.beat_spectra(beats, txchain.rrc_response())
            taus.append(rxfront.estimate_initial_spo(X[1])[0])
        assert abs(taus[0] - taus[1]) < 0.02

    def test_scale_invariant(self):
        wave = preamble_waveform(offset_ui=0.25)
        beats = rxfront.rx_slice_beats(wave)
        X = rxfront.beat_spectra(beats, txchain.rrc_response())
        t1, _ = rxfront.estimate_initial_spo(X[1])
        t2, _ = rxfront.estimate_initial_spo(X[1] * 7.7)
        assert abs(t1 - t2) < 1e-12
