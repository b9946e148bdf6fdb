"""End-to-end receiver smoke tests on a short noiseless burst."""

import math

import numpy as np
import pytest

from burstrx import channel, config, framing
from burstrx.receiver import BurstReceiver

PAYLOAD_LEN = 1920


@pytest.fixture(scope="module")
def burst():
    cfg = config.from_dict(
        {
            "frame": {"payload_len": PAYLOAD_LEN},
            "equalizer": {"ddlms": False, "mmse_init": False},
        }
    )
    rx = BurstReceiver(cfg)
    bits = framing.gen_payload_bits(rx.layout, seed=7)
    frame = framing.build_frame(rx.layout, bits)
    wave = channel.run_channel(rx.tx_waveform(frame), cfg.channel_config())
    return rx, wave, bits


def test_noiseless_loopback(burst):
    rx, wave, bits = burst
    report = rx.receive(wave, bits)
    assert report.status == "ok"
    assert report.bit_errors == 0
    assert report.bits_total == PAYLOAD_LEN


def test_silence_is_detection_failure(burst):
    rx, wave, bits = burst
    assert rx.receive(np.zeros_like(wave), bits).status == "detection_failed"


def test_sync_position_at_sample_rate(burst):
    rx, wave, _ = burst
    sync = rx.acquire(wave).sync
    assert sync.p == math.floor(sync.p1 * 1.125)
