"""Transient memory of one call of each burst-length stage, measured with ``tracemalloc``.

Each stage allocates the arrays its output needs and bounded blocks beside
them: ``tx_frame`` shapes :data:`burstrx.txchain.TX_BLOCK_BEATS` beats per
pass and cuts each pass's blocks from the symbols themselves, stage 2
corrects its beat spectra in place, and ``run_channel`` filters
:data:`burstrx.channel.CHANNEL_BLOCK` windows per pass.  The ceilings sit
above the measured peaks (1.51, 3.35 and 1.17 MiB) and below the 2.42, 5.1
and 2.3 MiB of the whole-frame padded stream and the whole-stack forms.
Each stage runs once before the measured call, so tables cached on first
use are not counted.
"""

import tracemalloc

import pytest

from burstrx import channel, config, framing, txchain
from burstrx.receiver import BurstReceiver

MIB = 2**20


def peak_mib(call, *args):
    """Peak of the memory ``call(*args)`` allocates beyond what is held before it, in MiB."""
    call(*args)
    tracemalloc.start()
    try:
        held = tracemalloc.get_traced_memory()[0]
        tracemalloc.reset_peak()
        call(*args)
        return (tracemalloc.get_traced_memory()[1] - held) / MIB
    finally:
        tracemalloc.stop()


def default_frame(cfg):
    return framing.build_frame(cfg.frame, framing.gen_payload_bits(cfg.frame, 1000))


@pytest.fixture(scope="module")
def paper_frame():
    cfg = config.from_dict({})
    return cfg, default_frame(cfg)


def test_tx_frame_default_frame(paper_frame):
    _, frame = paper_frame
    assert peak_mib(txchain.tx_frame, frame) < 2.0


def test_demodulate_default_frame(paper_frame):
    cfg, frame = paper_frame
    rx = BurstReceiver(cfg)
    capture = channel.run_channel(rx.tx_waveform(frame), cfg.channel_config())
    assert peak_mib(rx.demodulate, capture, rx.acquire(capture)) < 4.0


def test_run_channel_lowpass():
    # the channel of perfbench's lowpass_mmse workload
    cfg = config.from_dict({"frame": {"payload_len": 30_000},
                            "channel": {"snr_db": 20.0, "f3db_ghz": 4.0}})
    wave = txchain.tx_frame(default_frame(cfg))
    assert peak_mib(channel.run_channel, wave, cfg.channel_config()) < 1.5
