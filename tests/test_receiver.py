"""End-to-end receiver tests on a short noiseless burst."""

import math

import numpy as np
import pytest

from burstrx import channel, config, framing
from burstrx.receiver import BurstReceiver

PAYLOAD_LEN = 1920
PAYLOAD_BEATS = PAYLOAD_LEN // 96
STAGE1_BEATS = 24                     # rx.acquire_beats default
STAGE2_BEATS = 1 + 8 + PAYLOAD_BEATS  # Preamble B, training, payload


def noiseless_burst(mmse_init, ddlms, payload_len=PAYLOAD_LEN):
    cfg = config.from_dict(
        {
            "frame": {"payload_len": payload_len},
            "equalizer": {"ddlms": ddlms, "mmse_init": mmse_init},
        }
    )
    rx = BurstReceiver(cfg)
    bits = framing.gen_payload_bits(rx.layout, seed=7)
    frame = framing.build_frame(rx.layout, bits)
    wave = channel.run_channel(rx.tx_waveform(frame), cfg.channel_config())
    return rx, wave, bits


@pytest.fixture(scope="module")
def burst():
    return noiseless_burst(mmse_init=False, ddlms=False)


@pytest.mark.parametrize(
    "mmse_init, ddlms",
    [(False, False), (True, False), (False, True), (True, True)],
    ids=["no_eq", "mmse", "ddlms", "mmse_ddlms"],
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
