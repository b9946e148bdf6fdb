"""End-to-end receiver tests on short bursts, against a per-beat reference."""

import hashlib
import math

import numpy as np
import pytest

from burstrx import channel, config, framesync, framing, metrics, rxfront
from burstrx import equalizer as eq
from burstrx.fourier import fft_pow2
from burstrx.receiver import SYNC_REALIGN, BurstReceiver
from burstrx.timing import FdtrLoop, fd_interpolate, godard_band

PAYLOAD_LEN = 1920
PAYLOAD_BEATS = PAYLOAD_LEN // 96
STAGE1_BEATS = 24                     # rx.acquire_beats default
STAGE2_BEATS = 1 + 8 + PAYLOAD_BEATS  # Preamble B, training, payload


def make_burst(cfg_dict):
    """Receiver, channel output and payload of one burst (payload seed 7)."""
    cfg = config.from_dict(cfg_dict)
    rx = BurstReceiver(cfg)
    bits = framing.gen_payload_bits(rx.layout, seed=7)
    frame = framing.build_frame(rx.layout, bits)
    wave = channel.run_channel(rx.tx_waveform(frame), cfg.channel_config())
    return rx, wave, bits


def noiseless_burst(mmse_init, ddlms, payload_len=PAYLOAD_LEN):
    return make_burst(
        {
            "frame": {"payload_len": payload_len},
            "equalizer": {"ddlms": ddlms, "mmse_init": mmse_init},
        }
    )


EQ_SETTINGS = {  # (mmse_init, ddlms)
    "no_eq": (False, False),
    "mmse": (True, False),
    "ddlms": (False, True),
    "mmse_ddlms": (True, True),
}


DRIFT_DDLMS = {"frame": {"payload_len": 1920}, "channel": {"snr_db": 14.0, "clock_ppm": 100.0}}
LOWPASS_MMSE = {
    "frame": {"payload_len": 3840},
    "channel": {"snr_db": 20.0, "f3db_ghz": 4.0},
    "equalizer": {"ddlms": False},
}


@pytest.fixture(scope="module")
def burst():
    return noiseless_burst(mmse_init=False, ddlms=False)


@pytest.mark.parametrize(
    "mmse_init, ddlms", list(EQ_SETTINGS.values()), ids=list(EQ_SETTINGS)
)
def test_noiseless_loopback(mmse_init, ddlms):
    rx, wave, bits = noiseless_burst(mmse_init, ddlms)
    report = rx.receive(wave, bits)
    assert report.status == "ok"
    assert report.bit_errors == 0
    assert report.bits_total == PAYLOAD_LEN
    assert len(report.mse_trace) == PAYLOAD_BEATS
    assert all(math.isfinite(v) and v >= 0 for v in report.mse_trace)
    stages = [stage for stage, _, _ in report.spo_trace]
    assert stages == [1] * STAGE1_BEATS + [2] * STAGE2_BEATS
    assert [beat for _, beat, _ in report.spo_trace] == list(range(len(stages)))


@pytest.mark.parametrize(
    "mmse_init, ddlms", [(False, False), (True, True)], ids=["no_eq", "mmse_ddlms"]
)
def test_preamble_only_frame(mmse_init, ddlms):
    rx, wave, bits = noiseless_burst(mmse_init, ddlms, payload_len=0)
    report = rx.receive(wave, bits)
    assert report.status == "ok"
    assert report.bits_total == 0
    assert report.mse_trace == []


def test_silence_is_detection_failure(burst):
    rx, wave, bits = burst
    assert rx.receive(np.zeros_like(wave), bits).status == "detection_failed"


def test_sync_position_at_sample_rate(burst):
    rx, wave, _ = burst
    sync = rx.acquire(wave).sync
    assert sync.p == math.floor(sync.p1 * 1.125)


@pytest.mark.parametrize("n_samples", [0, 50, 107])
def test_shorter_than_one_beat_is_detection_failure(burst, n_samples):
    rx, wave, bits = burst
    assert rx.receive(wave[:n_samples], bits).status == "detection_failed"


def test_truncated_after_sync_is_sync_failure(burst):
    # acquisition and sync fit in 4 000 samples; the payload beats do not
    rx, wave, bits = burst
    report = rx.receive(wave[:4000], bits)
    assert report.status == "sync_failed"
    assert report.sync_p is not None
    assert [stage for stage, _, _ in report.spo_trace] == [1] * STAGE1_BEATS


def equalizer_errors(cfg_dict, setting):
    """Bit errors and bits of one decoded burst with an equalizer setting."""
    mmse_init, ddlms = EQ_SETTINGS[setting]
    rx, wave, bits = make_burst(
        {**cfg_dict, "equalizer": {"mmse_init": mmse_init, "ddlms": ddlms}}
    )
    report = rx.receive(wave, bits)
    assert report.status == "ok"
    return report.bit_errors, report.bits_total


@pytest.mark.parametrize("setting", EQ_SETTINGS)
def test_noiseless_default_frame_error_free(setting):
    assert equalizer_errors({}, setting) == (0, framing.FrameLayout().payload_len)


@pytest.mark.parametrize("snr_db", [14.0, 18.0])
def test_equalizer_no_worse_than_none(snr_db):
    cfg = {"frame": {"payload_len": 30_000}, "channel": {"snr_db": snr_db}}
    _, upper = metrics.wilson_interval(*equalizer_errors(cfg, "no_eq"))
    for setting in ("mmse", "ddlms", "mmse_ddlms"):
        errors, total = equalizer_errors(cfg, setting)
        assert errors / total <= upper, setting


def test_lowpass_equalizer_order():
    # 4 GHz / 20 dB: MMSE + DD-LMS <= MMSE only, within the MMSE interval,
    # and MMSE only < no EQ with the intervals apart
    cfg = {"frame": {"payload_len": 30_000}, "channel": {"snr_db": 20.0, "f3db_ghz": 4.0}}
    none = metrics.wilson_interval(*equalizer_errors(cfg, "no_eq"))
    mmse = metrics.wilson_interval(*equalizer_errors(cfg, "mmse"))
    errors, total = equalizer_errors(cfg, "mmse_ddlms")
    assert errors / total <= mmse[1]
    assert mmse[1] < none[0]


def test_silent_training_region_keeps_unit_taps():
    # sync passes but the eight training beats are silent: the tap fit is
    # singular, so the burst decodes with the unit taps of mmse_init off
    rx, wave, bits = noiseless_burst(mmse_init=True, ddlms=False)
    p = rx.acquire(wave).sync.p
    wave[p + 36 : p + 936] = 0.0
    report = rx.receive(wave, bits)
    no_eq, _, _ = noiseless_burst(mmse_init=False, ddlms=False)
    assert report.status == "ok"
    assert report.bit_errors == no_eq.receive(wave, bits).bit_errors


def timing_step(loop, X):
    """One beat of the timing loop, corrected first and detected after."""
    corrected = fd_interpolate(X, loop.tau)
    loop.trace.append(loop.tau)
    k = godard_band(loop.alpha)
    pair = corrected[k] * np.conj(corrected[k + 16])
    mag = float(np.sum(np.abs(pair)))
    loop.update(float(np.sum(pair.imag)) / mag if mag > 0 else 0.0)
    return corrected


def decide_beat(z, tracker):
    """Decisions of one beat and the threshold update they make."""
    bits = (z > tracker.value).astype(np.uint8)
    ones = bits.astype(bool)
    tracker.update(
        float(z[~ones].sum()), int((~ones).sum()), float(z[ones].sum()), int(ones.sum())
    )
    return bits


def receive_per_beat(rx, wave, detect_beat):
    """Reference receiver that runs every stage one beat at a time, in frame order.

    Starts from the detected beat and returns the payload bits, the MSE trace,
    the sync position, the tau trace and the number of acquisition taus.
    """
    cfg = rx.cfg
    first = detect_beat + 1
    beats = rxfront.rx_slice_beats(wave)
    X_acq = rxfront.beat_spectra(beats[first : first + cfg.rx.acquire_beats], rx.h_rx)
    tau0, _ = rxfront.estimate_initial_spo(X_acq[0])
    loop = FdtrLoop(kp=cfg.timing.kp, ki=cfg.timing.ki, alpha=cfg.tx.rrc_rolloff, tau=tau0)
    symbols = np.concatenate(
        [fft_pow2(eq.strip_rolloff(timing_step(loop, X)), inverse=True)[32:].real
         for X in X_acq]
    )
    sync = framesync.find_sync(
        symbols, rx.pn, ratio_min=cfg.rx.sync_ratio_min, offset=96 * first + 32
    )
    stage1 = len(loop.trace)

    beats = rxfront.rx_slice_beats(wave[sync.p - SYNC_REALIGN :])
    n_pay = -(-rx.layout.payload_len // 96)
    first_pay = 2 + rx.n_c_beats
    X = rxfront.beat_spectra(beats[: first_pay + n_pay], rx.h_rx)
    loop.tau -= sync.frac
    timing_step(loop, X[1])
    y_train = eq.strip_rolloff(np.array([timing_step(loop, X[m]) for m in range(2, first_pay)]))
    state = eq.FdeState(mu=cfg.equalizer.mu)
    if cfg.equalizer.mmse_init:
        state.initialize(y_train, rx.c_ref)
    payload, mse = [], []
    for m in range(first_pay, first_pay + n_pay):
        Y = eq.strip_rolloff(timing_step(loop, X[m]))
        z = fft_pow2(eq.apply_fde(Y, state.W), inverse=True)[32:]
        d = decide_beat(z.real, state.threshold)
        payload.append(d)
        mse.append(float(np.sum(np.abs(z - d) ** 2)))
        if cfg.equalizer.ddlms:
            e = np.zeros(128, complex)
            e[32:] = d - z
            power = float(np.mean(np.abs(Y) ** 2))
            mu_eff = state.mu / power if power > 0 else 0.0
            state.W = state.W + 2.0 * mu_eff * np.conj(Y) * fft_pow2(e)
    bits = np.concatenate(payload)[: rx.layout.payload_len]
    return bits, mse, sync.p1, np.array(loop.trace), stage1


@pytest.mark.parametrize(
    "cfg_dict",
    [DRIFT_DDLMS, LOWPASS_MMSE, {"frame": {"payload_len": 1920}, "tx": {"rrc_rolloff": 0.125}}],
    ids=["14dB_100ppm_ddlms", "4GHz_20dB_mmse", "noiseless_rolloff_0.125"],
)
def test_batched_receiver_matches_per_beat_reference(cfg_dict):
    # roll-off 0.125 puts bin 56, whose alias partner is the Nyquist bin, in
    # the timing detector band; the receive RRC nulls bin 72, so that pair is
    # tiny here and TestClosedLoop checks its phase on random spectra
    rx, wave, _ = make_burst(cfg_dict)
    acq = rx.acquire(wave)
    demod = rx.demodulate(wave, acq)
    bits, mse, p1, taus, stage1 = receive_per_beat(rx, wave, acq.detect_beat)
    assert (acq.sync.p1, acq.stage1_trace_len) == (p1, stage1)
    assert np.array_equal(demod.payload_bits, bits)
    np.testing.assert_allclose(demod.mse_trace, mse, rtol=1e-12)
    trace = np.array(acq.loop.trace)
    assert trace.shape == taus.shape
    assert np.max(np.abs(trace - taus)) <= 1e-12 * np.max(np.abs(taus))


@pytest.mark.parametrize(
    "cfg_dict, errors, digest",
    [
        (DRIFT_DDLMS, 0, "4ed8aa38f59c12b1a28043c1a2a764ee88736d41608aaa56c97d4abb1372e3f3"),
        (LOWPASS_MMSE, 17, "93e30c68fdad6c0ef2bad15b94f0d3f7cfc6afcca73c77f1ae76f1315311bc11"),
    ],
    ids=["1920_bits_14dB_100ppm_ddlms", "3840_bits_4GHz_20dB_mmse"],
)
def test_decisions_pinned(cfg_dict, errors, digest):
    """Decided bits and error count of two fixed bursts, pinned.

    A change meant only to make the receiver faster must not flip a bit, so
    this fails on any decision change.  A change to the equalizer or another
    stage that alters decisions on purpose re-pins these values and says so
    in CHANGES.md.
    """
    rx, wave, payload = make_burst(cfg_dict)
    bits = rx.demodulate(wave, rx.acquire(wave)).payload_bits
    assert int(np.count_nonzero(bits != payload)) == errors
    assert hashlib.sha256(np.asarray(bits, dtype=np.uint8).tobytes()).hexdigest() == digest
