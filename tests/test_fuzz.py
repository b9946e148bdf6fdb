"""A seeded fuzz set over the whole config space: no draw raises.

Aim 3 of the roadmap names two failures, an exception and a silent BER of
0.5.  The other tests check hand-picked cases; this set draws 400 configs
and captures at random from fixed ranges, so a count over it can move.  The
ranges and the seed are fixed: a draw that raises is a fault of the program,
not of the draw.
"""

import numpy as np

from burstrx import channel, config, framing
from burstrx.receiver import BurstReceiver

FUZZ_SEED = 2026
FUZZ_CASES = 400
STATUSES = {"ok", "detection_failed", "sync_failed"}


def fuzz_cases(n=FUZZ_CASES, seed=FUZZ_SEED):
    """``n`` draws of ``(cfg_dict, payload_seed, cut)`` from one seeded generator.

    ``cut`` is the fraction of the capture kept, which ends it at a random
    sample, or None for the whole capture.  Ranges: payload 0..5 999 bits,
    Preamble A 128..438 (even), Preamble C 96..864, roll-off in
    [1/64, 0.125]; SNR None (20%) or 4..30 dB, drift 0 (50%) or within
    +-1 000 ppm, low-pass None (50%) or 3..20 GHz, gain 10^(+-3), timing
    offset +-3 UI, gap 0..2 999 samples; both equalizer flags at random, and
    a quarter of the captures cut at a random sample.
    """
    rng = np.random.default_rng(seed)
    for _ in range(n):
        cfg = {
            "frame": {
                "payload_len": int(rng.integers(0, 6000)),
                "preamble_a_len": 2 * int(rng.integers(64, 220)),
                "preamble_c_len": 96 * int(rng.integers(1, 10)),
            },
            "tx": {"rrc_rolloff": float(rng.uniform(1 / 64, 0.125))},
            "channel": {
                "snr_db": None if rng.random() < 0.2 else float(rng.uniform(4.0, 30.0)),
                "clock_ppm": 0.0 if rng.random() < 0.5 else float(rng.uniform(-1000.0, 1000.0)),
                "f3db_ghz": None if rng.random() < 0.5 else float(rng.uniform(3.0, 20.0)),
                "gain": float(10.0 ** rng.uniform(-3.0, 3.0)),
                "timing_offset_ui": float(rng.uniform(-3.0, 3.0)),
                "gap_samples": int(rng.integers(0, 3000)),
            },
            "equalizer": {"mmse_init": bool(rng.integers(2)), "ddlms": bool(rng.integers(2))},
            "seed": int(rng.integers(0, 2**31)),
        }
        payload_seed = int(rng.integers(0, 2**31))
        cut = float(rng.random()) if rng.random() < 0.25 else None
        yield cfg, payload_seed, cut


def run_case(cfg_dict, payload_seed, cut):
    """The report of one fuzz draw; ``cut`` is the kept fraction of the capture, or None."""
    cfg = config.from_dict(cfg_dict)
    rx = BurstReceiver(cfg)
    bits = framing.gen_payload_bits(rx.layout, seed=payload_seed)
    frame = framing.build_frame(rx.layout, bits)
    wave = channel.run_channel(rx.tx_waveform(frame), cfg.channel_config())
    if cut is not None:
        wave = wave[: int(cut * len(wave))]
    return rx.receive(wave, bits)


def test_no_draw_raises():
    # under the suite's warnings-as-errors, a RuntimeWarning raises too
    raised, statuses = [], []
    for i, case in enumerate(fuzz_cases()):
        try:
            statuses.append(run_case(*case).status)
        except Exception as exc:  # every raise is listed, not just the first
            raised.append((i, repr(exc)))
    assert not raised, raised
    assert set(statuses) <= STATUSES, set(statuses) - STATUSES
