"""Workloads of the burst-receiver benchmark.

Every burst of a workload does the same work: the same frame layout and the
same channel, with its own payload and noise drawn from the workload seed.
``bursts`` is the fixed set whose decisions give the BER, the burst statuses
and the decision digest; timing repeats that set until the run time is up.
``layers`` records, for each layer metric of the traced run, the end-to-end
metric it should move on this workload.
"""

from dataclasses import dataclass


@dataclass(frozen=True)
class Workload:
    name: str
    why: str
    config: dict
    bursts: int
    layers: dict


WORKLOADS = {
    w.name: w
    for w in [
        Workload(
            name="paper_frame",
            why=(
                "Default 130000-bit frame, noiseless, MMSE + DD-LMS: the demod loop"
                " (fourier, equalizer, timing, metrics.mse_point) is >80% of"
                " receive and sets rx_mbit_s and burst_ms_p50"
            ),
            config={},
            bursts=12,
            layers={
                "fourier.fft_pow2": ["rx_mbit_s", "burst_ms_p50"],
                "equalizer.ddlms_update": ["rx_mbit_s", "ber_upper95"],
                "timing.process_beat": ["rx_mbit_s"],
                "metrics.mse_point": ["rx_mbit_s"],
                "txchain.tx_frame": ["chain_mbit_s"],
                "prng.bits": ["chain_mbit_s"],
                "framing.build_frame": ["chain_mbit_s"],
                "receiver.receive": ["rx_mbit_s"],
                "receiver.init": ["setup_s"],
                "config.from_dict": ["setup_s"],
            },
        ),
        Workload(
            name="short_burst",
            why=(
                "1920-bit bursts at 14 dB with 100 ppm drift: detection, acquisition"
                " and sync (rxfront, framesync) are ~1/3 of receive; drift runs"
                " channel's chunked delay loop"
            ),
            config={
                "frame": {"payload_len": 1920},
                "channel": {"snr_db": 14.0, "clock_ppm": 100.0},
            },
            bursts=160,
            layers={
                "rxfront.detect_frame": ["burst_ms_p50", "rx_mbit_s"],
                "rxfront.beat_spectra": ["burst_ms_p50", "rx_mbit_s"],
                "rxfront.rx_slice_beats": ["burst_ms_p50", "rx_mbit_s"],
                "framesync.find_sync": ["burst_ms_p50"],
                "receiver.acquire": ["burst_ms_p50", "rx_mbit_s"],
                "equalizer.initialize": ["burst_ms_p50"],
                "channel.run_channel": ["chain_mbit_s"],
                "receiver.receive": ["rx_mbit_s"],
                "receiver.init": ["setup_s"],
                "config.from_dict": ["setup_s"],
            },
        ),
        Workload(
            name="lowpass_mmse",
            why=(
                "30000 bits through a 4 GHz low-pass at 20 dB, MMSE taps without"
                " DD-LMS: equalizer used differently, some bursts fail sync, so"
                " decision changes move ber_upper95 and ok_frac"
            ),
            config={
                "frame": {"payload_len": 30000},
                "channel": {"snr_db": 20.0, "f3db_ghz": 4.0},
                "equalizer": {"ddlms": False},
            },
            bursts=100,
            layers={
                "equalizer.apply_fde": ["rx_mbit_s", "ber_upper95"],
                "equalizer.decide_demap": ["rx_mbit_s", "ber_upper95", "ok_frac"],
                "equalizer.strip_rolloff": ["rx_mbit_s"],
                "equalizer.initialize": ["ber_upper95", "ok_frac"],
                "timing.process_beat": ["rx_mbit_s"],
                "fourier.fft_pow2": ["rx_mbit_s"],
                "channel.run_channel": ["chain_mbit_s"],
                "receiver.receive": ["rx_mbit_s"],
                "receiver.init": ["setup_s"],
                "config.from_dict": ["setup_s"],
            },
        ),
    ]
}
