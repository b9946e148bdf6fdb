"""End-to-end receiver tests on short bursts, against a per-beat reference."""

import hashlib
import json
import math
import sys
from dataclasses import asdict, replace
from pathlib import Path

import numpy as np
import pytest

from burstrx import channel, config, framesync, framing, metrics, rxfront, txchain
from burstrx import equalizer as eq
from burstrx.errors import SyncError
from burstrx.fourier import fft_pow2
from burstrx.receiver import ACQUIRE_MARGIN_BEATS, DETECT_CHUNK, ENERGY_LIMIT, BurstReceiver
from burstrx.timing import W1, fd_interpolate, godard_band

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "perfbench"))

import workloads  # noqa: E402

PAYLOAD_LEN = 1920
PAYLOAD_BEATS = PAYLOAD_LEN // 96
STAGE2_BEATS = 1 + 8 + PAYLOAD_BEATS  # Preamble B, training, payload


def make_burst(cfg_dict, payload_seed=7):
    """Receiver, channel output and payload of one burst."""
    cfg = config.from_dict(cfg_dict)
    rx = BurstReceiver(cfg)
    bits = framing.gen_payload_bits(rx.layout, seed=payload_seed)
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
# 600 payload beats: the DD-LMS gradients land from beat 242 on
LONG_DDLMS = {
    "frame": {"payload_len": 57_600},
    "channel": {"snr_db": 12.0, "f3db_ghz": 6.0},
}
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
    # one tau in UI per stage-2 beat; tau0 is reported once
    taus = rx.demodulate(wave, rx.acquire(wave)).taus
    assert len(report.spo_trace) == STAGE2_BEATS
    assert report.spo_trace == [tau / 1.125 for tau in taus]


@pytest.mark.parametrize("rolloff", [1 / 64, 0.125], ids=["rolloff_min", "rolloff_max"])
def test_noiseless_loopback_at_rolloff_limits(rolloff):
    # the ends of the accepted roll-off range: the narrowest detector band
    # (bins 63..64) and the widest (57..71, without bin 56)
    rx, wave, bits = make_burst(
        {"frame": {"payload_len": PAYLOAD_LEN}, "tx": {"rrc_rolloff": rolloff}}
    )
    report = rx.receive(wave, bits)
    assert report.status == "ok"
    assert report.bit_errors == 0


@pytest.mark.parametrize(
    "mmse_init, ddlms", [(False, False), (True, True)], ids=["no_eq", "mmse_ddlms"]
)
def test_preamble_only_frame(mmse_init, ddlms):
    rx, wave, bits = noiseless_burst(mmse_init, ddlms, payload_len=0)
    report = rx.receive(wave, bits)
    assert report.status == "ok"
    assert report.bits_total == 0
    assert report.mse_trace == []


def test_chain_needs_no_complex_fft(monkeypatch):
    # every signal is real, so the chain runs on real transforms alone: with
    # numpy's complex FFT pair unavailable a burst still decodes
    def refuse(*args, **kwargs):
        raise AssertionError("complex FFT called")

    monkeypatch.setattr(np.fft, "fft", refuse)
    monkeypatch.setattr(np.fft, "ifft", refuse)
    rx, wave, bits = make_burst({"frame": {"payload_len": PAYLOAD_LEN}})
    report = rx.receive(wave, bits)
    assert (report.status, report.bit_errors, report.bits_total) == ("ok", 0, PAYLOAD_LEN)


def test_silence_is_detection_failure(burst):
    rx, wave, bits = burst
    assert rx.receive(np.zeros_like(wave), bits).status == "detection_failed"


def test_sync_position_at_sample_rate(burst):
    rx, wave, _ = burst
    sync = rx.acquire(wave).sync
    assert sync.p == math.floor(sync.p1 * 1.125)


@pytest.mark.parametrize("preamble_a_len", [128, 192])
@pytest.mark.parametrize("gap", [0, 220, 1080, 1081, 1130])
def test_sync_position_is_a_capture_sample(gap, preamble_a_len):
    # p + frac is where Preamble B starts in the capture, to half a symbol:
    # past the gap, Preamble A and the 32-symbol delay of the RRC pair
    rx, wave, _ = make_burst(
        {"frame": {"payload_len": 960, "preamble_a_len": preamble_a_len},
         "channel": {"gap_samples": gap}}
    )
    sync = rx.acquire(wave).sync
    assert abs(sync.p + sync.frac - (gap + 1.125 * preamble_a_len + 36)) <= 9 / 16


@pytest.mark.parametrize("n_samples", [0, 50, 107])
def test_shorter_than_one_beat_is_detection_failure(burst, n_samples):
    rx, wave, bits = burst
    assert rx.receive(wave[:n_samples], bits).status == "detection_failed"


@pytest.mark.parametrize(
    "capture",
    [
        lambda wave: np.where(np.arange(len(wave)) == len(wave) // 2, np.nan, wave),
        lambda wave: np.full_like(wave, np.inf),
        lambda wave: wave * 1e200,
        lambda wave: wave * np.sqrt(2 * ENERGY_LIMIT / (wave @ wave)),
    ],
    ids=["nan_in_payload", "all_inf", "scaled_1e200", "twice_the_energy_limit"],
)
def test_unusable_capture_is_detection_failure(burst, capture):
    # a non-finite sample, or more energy than the beat powers hold, is a
    # status before any transform: one NaN in the payload decoded as `ok`
    # at a BER near 0.5, and the others raised a RuntimeWarning in a stage
    rx, wave, bits = burst
    report = rx.receive(capture(wave), bits)
    assert report.status == "detection_failed"
    assert report.detect_beat is None


def test_capture_at_half_the_energy_limit_decodes(burst):
    # every stage stays inside float64 up to the limit
    rx, wave, bits = burst
    report = rx.receive(wave * np.sqrt(ENERGY_LIMIT / 2 / (wave @ wave)), bits)
    assert (report.status, report.bit_errors) == ("ok", 0)


def test_tone_at_half_the_energy_limit_reports_a_status(burst):
    # the limit's worst case: the whole energy in one beat's tone bin, whose
    # power is then about 72 times the capture's energy; no stage overflows
    rx, wave, bits = burst
    n = np.arange(len(wave))
    tone = np.where((n >= 1080) & (n < 1080 + 144), np.cos(2 * np.pi * 64 / 144 * n), 0.0)
    report = rx.receive(tone * np.sqrt(ENERGY_LIMIT / 2 / (tone @ tone)), bits)
    assert report.status in {"detection_failed", "sync_failed"}


@pytest.mark.parametrize("snr_db", [None, 14.0, channel.SNR_DB_LIMIT, -channel.SNR_DB_LIMIT])
@pytest.mark.parametrize("gain", [channel.GAIN_LIMIT, 1 / channel.GAIN_LIMIT])
def test_gain_limits_run(gain, snr_db):
    # at either end of the accepted gain range every stage stays inside
    # float64: the burst decodes, and under noise 300 dB above it the
    # report says detection_failed, without raising
    rx, wave, bits = make_burst(
        {"frame": {"payload_len": 960}, "channel": {"gain": gain, "snr_db": snr_db}}
    )
    report = rx.receive(wave, bits)
    if snr_db == -channel.SNR_DB_LIMIT:
        assert report.status == "detection_failed"
    else:
        assert (report.status, report.bit_errors) == ("ok", 0)


@pytest.mark.parametrize(
    "dtype, scale", [(np.int64, 2.0**40), (np.float32, 2.0**64)], ids=["int64", "float32"]
)
def test_integer_and_float32_captures_decode(burst, dtype, scale):
    # the capture is read as float64 before its energy is taken, so samples
    # whose squares pass the range of their own dtype neither wrap nor
    # overflow into a rejection
    rx, wave, bits = burst
    report = rx.receive((scale * wave).astype(dtype), bits)
    assert (report.status, report.bit_errors) == ("ok", 0)


def test_truncated_after_sync_is_sync_failure(burst):
    # acquisition and sync fit in 4 000 samples; the payload beats do not
    rx, wave, bits = burst
    report = rx.receive(wave[:4000], bits)
    assert report.status == "sync_failed"
    assert report.sync_p is not None
    assert math.isfinite(report.tau0)
    assert report.spo_trace == []  # no stage-2 beat was corrected


@pytest.mark.parametrize(
    "capture, status",
    [
        (lambda wave: wave, "ok"),
        (np.zeros_like, "detection_failed"),
        (lambda wave: wave[:4000], "sync_failed"),  # cut after Preamble B
    ],
    ids=["ok", "silent", "cut_after_preamble_b"],
)
def test_report_dict_is_plain_json(burst, capture, status):
    # the dict holds JSON values alone, and no configuration or seed
    rx, wave, bits = burst
    report = rx.receive(capture(wave), bits)
    assert report.status == status
    d = asdict(report)
    assert json.loads(json.dumps(d)) == d
    values = [x for v in d.values() for x in (v if isinstance(v, list) else [v])]
    assert {type(v) for v in values} <= {str, int, float, type(None)}
    assert "config" not in d and "seed" not in d
    assert d["schema_version"] == 4


@pytest.mark.parametrize("n_beats", [11, 12], ids=["11_beats", "12_beats"])
def test_capture_cut_after_detection(n_beats):
    # a noiseless 960-bit burst detects at beat 10: cut to 11 beats detection
    # fires on the last beat, cut to 12 on the one before it; stage 1 starts
    # at the detected beat, and one or two beats cannot hold Preamble B
    rx, wave, bits = make_burst({"frame": {"payload_len": 960}})
    assert rx.acquire(wave).detect_beat == 10
    report = rx.receive(wave[: 108 * n_beats], bits)
    assert report.status == "sync_failed"
    # the report keeps what acquisition found before sync failed
    assert report.detect_beat == 10
    assert math.isfinite(report.tau0)
    assert report.sync_p is None
    assert report.spo_trace == []


@pytest.mark.parametrize("preamble_a_len", [2304, 4800])
def test_long_preamble_a_syncs(preamble_a_len):
    # the acquisition window grows with Preamble A, so Preamble B stays in it
    rx, wave, bits = make_burst(
        {"frame": {"preamble_a_len": preamble_a_len, "payload_len": 960}}
    )
    report = rx.receive(wave, bits)
    assert report.status == "ok"
    assert report.bit_errors == 0
    assert len(report.spo_trace) == 1 + 8 + 960 // 96
    preamble_ab = preamble_a_len + rx.layout.preamble_b_len
    assert rx.acquire_beats == -(-preamble_ab // 96) + ACQUIRE_MARGIN_BEATS


@pytest.mark.parametrize(
    "gap_beats, preamble_a_len, payload_seed, rrc_rolloff",
    [
        (10, 192, 7, txchain.DEFAULT_ROLLOFF),
        (31, 192, 7, txchain.DEFAULT_ROLLOFF),
        (10, 128, 13, txchain.DEFAULT_ROLLOFF),
        (31, 128, 13, txchain.DEFAULT_ROLLOFF),
        (10, 128, 13, 1 / 64),
        (10, 128, 13, 0.0324),
    ],
    ids=[
        "gap_10_beats", "chunk_edge", "gap_10_beats_A128", "chunk_edge_A128",
        "gap_10_beats_A128_rolloff_1_64", "gap_10_beats_A128_rolloff_0.0324",
    ],
)
def test_noiseless_at_every_arrival_phase(gap_beats, preamble_a_len, payload_seed, rrc_rolloff):
    # bursts arrive at any sample phase of the 108-sample beat grid; after a
    # 31-beat gap, detection fires at some phases on the last beat of the
    # first 32-beat detection chunk, and tau0 still reads the tone beats after
    # it.  With A = 128 the only beat that may pass detection is the last one
    # before Preamble B, so stage 1 holds all of Preamble B only if it starts
    # there; with this payload a stage 1 missing its start locks onto a false
    # peak at a third of the phases (gap 1 086 among them).  At low roll-off
    # that beat can peak beside bin 64; the tone bin's own power still
    # passes the threshold.
    for phase in range(108):
        rx, wave, bits = make_burst(
            {
                "frame": {"payload_len": 960, "preamble_a_len": preamble_a_len},
                "tx": {"rrc_rolloff": rrc_rolloff},
                "channel": {"gap_samples": 108 * gap_beats + phase},
            },
            payload_seed,
        )
        report = rx.receive(wave, bits)
        assert (report.status, report.bit_errors) == ("ok", 0), phase


def random_noiseless_config(rng):
    """A valid noiseless config across the frame, roll-off, gain, gap and equalizer ranges."""
    return {
        "frame": {
            "preamble_a_len": int(rng.choice([128, 160, 192, 256, 384])),
            "preamble_c_len": 96 * int(rng.integers(1, 17)),
            "payload_len": int(rng.integers(0, 5000)),
        },
        "tx": {"rrc_rolloff": float(rng.uniform(1 / 64, 0.125))},
        "channel": {
            "gap_samples": int(rng.integers(0, 3000)),
            "gain": float(10 ** rng.uniform(-2, 2)),
            "timing_offset_ui": float(rng.uniform(-0.5, 0.5)) if rng.random() < 0.3 else 0.0,
        },
        "equalizer": {"mmse_init": bool(rng.integers(2)), "ddlms": bool(rng.integers(2))},
    }


def test_noiseless_random_configs():
    # every burst is detected, finds Preamble B and decodes without error
    rng = np.random.default_rng(0)
    for _ in range(300):
        cfg = random_noiseless_config(rng)
        rx, wave, bits = make_burst(cfg, int(rng.integers(2**32)))
        report = rx.receive(wave, bits)
        assert (report.status, report.bit_errors) == ("ok", 0), cfg


def test_early_false_alarm_keeps_preamble_b_in_window():
    # burst 95 of the 14 dB / 100 ppm benchmark bursts at seed 2: noise
    # passes detection at beat 1, about nine beats before the tone arrives;
    # the window's margin past Preamble B still holds Preamble B, where a
    # 3-beat margin left the burst sync_failed
    rx, wave, bits = make_burst(
        {"seed": 200_095, **DRIFT_DDLMS}, payload_seed=17_801_880_849_938_408_489
    )
    report = rx.receive(wave, bits)
    assert report.detect_beat == 1
    assert (report.status, report.bit_errors) == ("ok", 0)


def record_calls(monkeypatch, module, name, record):
    """Wraps ``module.name`` to append ``record(first argument)`` to the returned list per call."""
    records = []
    wrapped = getattr(module, name)

    def recorded(x, *args, **kwargs):
        records.append(record(x))
        return wrapped(x, *args, **kwargs)

    monkeypatch.setattr(module, name, recorded)
    return records


def test_acquisition_passes_start_every_chunk(monkeypatch):
    # detection fires at beat 100, in the chunk from beat 96; pass k slices
    # the DETECT_CHUNK beats from beat 32 k and the acquire_beats = 24 that
    # a detection on the chunk's last beat needs, and each pass's rows are
    # those beats of the whole waveform (the gap holds noise, so a
    # zero-padded overlap would show)
    rx, wave, _ = make_burst(
        {"frame": {"payload_len": 960}, "channel": {"gap_samples": 108 * 100, "snr_db": 20.0}}
    )
    passes = record_calls(monkeypatch, rxfront, "beat_spectra", np.array)
    assert rx.acquire(wave).detect_beat == 100
    assert [len(beats) for beats in passes] == [56, 56, 56, 56]
    assert DETECT_CHUNK + rx.acquire_beats == 56
    padded = np.concatenate([np.zeros(36), wave])
    for k, beats in enumerate(passes):
        window = range(DETECT_CHUNK * k, DETECT_CHUNK * k + 56)
        assert np.array_equal(beats, [padded[108 * b : 108 * b + 144] for b in window])


@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
def test_workload_bursts_acquire_in_one_pass(monkeypatch, name):
    # the benchmark's bursts sit behind the default 1 080-sample gap, so the
    # tone arrives inside the first chunk and acquisition transforms once
    rx, wave, _ = make_burst(workloads.WORKLOADS[name].config)
    passes = record_calls(monkeypatch, rxfront, "beat_spectra", len)
    assert rx.acquire(wave).detect_beat < DETECT_CHUNK
    assert len(passes) == 1


def test_demodulate_transform_rows(monkeypatch):
    # the default frame with DD-LMS: the 8 training beats are transformed to
    # fit the taps, each of the n payload beats once to equalize it, and each
    # of the n - DDLMS_DELAY beats whose gradient lands once more, the rfft of
    # its error; the per-bin power of the step takes no transform
    rx, wave, _ = make_burst({})
    acq = rx.acquire(wave)
    rows = record_calls(monkeypatch, eq, "fft_pow2", lambda x: int(np.prod(np.shape(x)[:-1])))
    rx.demodulate(wave, acq)
    n = -(-rx.layout.payload_len // 96)
    assert n == 1355
    assert sum(rows) == 8 + n + (n - eq.DDLMS_DELAY) == 2476


def test_stages_read_only_their_samples(monkeypatch):
    # a burst detected in the second pass: acquisition transforms the beats
    # up to 2 * DETECT_CHUNK + acquire_beats, demodulation the windows of
    # Preamble B, the 8 training beats and the 40 payload beats, the first
    # at p - 36; samples outside them change nothing, and every slice past
    # the first acquisition pass reads the capture itself.  Acquisition's
    # energy check reads every sample and rejects a NaN, so past its beats
    # the capture holds loud noise instead; demodulation's is NaN
    rx, wave, _ = make_burst({"frame": {"payload_len": 3840}, "channel": {"gap_samples": 108 * 40}})
    acq = rx.acquire(wave)
    demod = rx.demodulate(wave, acq)
    assert DETECT_CHUNK <= acq.detect_beat < 2 * DETECT_CHUNK
    sliced = record_calls(monkeypatch, rxfront, "beat_spectra", lambda beats: beats)

    acquired = 108 * (2 * DETECT_CHUNK + rx.acquire_beats)
    assert acquired < len(wave)
    cut = wave.copy()
    cut[acquired:] = np.random.default_rng(5).normal(0.0, 1e3, len(wave) - acquired)
    assert rx.acquire(cut) == acq
    assert len(sliced) == 2
    assert np.shares_memory(sliced[1], cut)

    first = acq.sync.p - 36
    demodulated = first + 144 + 108 * (8 + 3840 // 96)
    assert 0 < first and demodulated < len(wave)
    cut = wave.copy()
    cut[:first] = np.nan
    cut[demodulated:] = np.nan
    sliced.clear()
    again = rx.demodulate(cut, acq)
    assert len(sliced) == 1
    assert np.shares_memory(sliced[0], cut)
    assert np.array_equal(again.payload_bits, demod.payload_bits)
    assert again.mse_trace == demod.mse_trace
    assert np.array_equal(again.taus, demod.taus)


@pytest.mark.parametrize("p", [34, 36])
def test_sync_fails_only_where_preamble_b_precedes_the_capture(burst, monkeypatch, p):
    # stage 2's first window, Preamble B's, is wave[p - 36 : p + 108]; sync
    # fails only where it would start before sample 0.  p = floor(1.125 p1)
    # skips 35: p1 = 31 gives 34, p1 = 32 gives 36
    rx, wave, _ = burst
    acq = rx.acquire(wave)
    acq = replace(acq, sync=replace(acq.sync, p1=math.ceil(p / 1.125)))
    assert acq.sync.p == p
    if p < 36:
        with pytest.raises(SyncError):
            rx.demodulate(wave, acq)
        return
    sliced = record_calls(monkeypatch, rxfront, "beat_spectra", np.array)
    assert len(rx.demodulate(wave, acq).payload_bits) == PAYLOAD_LEN
    assert np.array_equal(sliced[0][0], wave[p - 36 : p + 108])


@pytest.mark.parametrize("preamble_a_len", [128, 192, 1000])
def test_references_are_the_sent_preamble(preamble_a_len):
    # Pn and Preamble C are read from the symbols the transmitter sends, not
    # derived a second time from the seeds
    rx = BurstReceiver(config.from_dict({"frame": {"preamble_a_len": preamble_a_len}}))
    head = framing.fixed_preamble(rx.layout)
    assert np.shares_memory(rx.c_ref, head)
    assert np.array_equal(rx.c_ref.reshape(-1), head[-768:])
    b0 = rx.layout.preamble_a_len
    assert np.array_equal(rx.pn, 2.0 * head[b0 : b0 + framing.PN_LEN] - 1.0)
    assert set(rx.pn) == {-1.0, 1.0}


@pytest.mark.skipif(sys.platform != "linux", reason="the heap thresholds are set on Linux")
def test_repeated_burst_keeps_its_memory():
    # freed arrays stay with the process, so a second burst of the same size
    # finds its pages mapped; returned to the system, they fault back in
    import resource

    def chain():
        rx, wave, bits = make_burst({"frame": {"payload_len": 30_000}})
        assert rx.receive(wave, bits).status == "ok"

    chain()
    before = resource.getrusage(resource.RUSAGE_SELF).ru_minflt
    chain()
    assert resource.getrusage(resource.RUSAGE_SELF).ru_minflt - before < 100


def test_lowpass_acquisition():
    # behind a 4 GHz low-pass the beat after the detected one may already
    # hold Preamble B, whose data swamps the tone bins; tau0 reads only the
    # beats that passed detection, so no burst is lost at sync
    cfg = config.from_dict(
        {
            "frame": {"payload_len": PAYLOAD_LEN},
            "channel": {"snr_db": 20.0, "f3db_ghz": 4.0},
            "equalizer": {"ddlms": False},
        }
    )
    rx = BurstReceiver(cfg)
    statuses = []
    for i in range(40):
        bits = framing.gen_payload_bits(rx.layout, seed=100 + i)
        frame = framing.build_frame(rx.layout, bits)
        wave = channel.run_channel(rx.tx_waveform(frame), cfg.channel_config(seed_offset=i))
        statuses.append(rx.receive(wave, bits).status)
    assert "sync_failed" not in statuses
    assert statuses.count("ok") >= 39


def equalizer_errors(cfg_dict, setting, payload_seed=7):
    """Bit errors and bits of one decoded burst with an equalizer setting."""
    mmse_init, ddlms = EQ_SETTINGS[setting]
    rx, wave, bits = make_burst(
        {**cfg_dict, "equalizer": {"mmse_init": mmse_init, "ddlms": ddlms}}, payload_seed
    )
    report = rx.receive(wave, bits)
    assert report.status == "ok"
    return report.bit_errors, report.bits_total


@pytest.mark.parametrize("setting", EQ_SETTINGS)
def test_noiseless_default_frame_error_free(setting):
    assert equalizer_errors({}, setting) == (0, framing.FrameLayout().payload_len)


@pytest.mark.parametrize("gain", [0.01, 0.3, 100.0])
@pytest.mark.parametrize("setting", EQ_SETTINGS)
def test_noiseless_any_gain(setting, gain):
    # every setting fits at least a gain on Preamble C, so the levels are
    # {0, 1} and the fixed 0.5 slicer holds at any channel gain (gain 1 is
    # test_noiseless_loopback)
    cfg = {"frame": {"payload_len": PAYLOAD_LEN}, "channel": {"gain": gain}}
    assert equalizer_errors(cfg, setting) == (0, PAYLOAD_LEN)


@pytest.mark.parametrize("payload_len", [PAYLOAD_LEN, 96 * eq.DDLMS_DELAY])
@pytest.mark.parametrize("mmse_init", [False, True], ids=["gain", "mmse"])
def test_payload_within_loop_delay_ignores_ddlms(mmse_init, payload_len):
    # no DD-LMS gradient lands before the last of at most DDLMS_DELAY beats
    decided = []
    for ddlms in (True, False):
        rx, wave, bits = make_burst(
            {
                "frame": {"payload_len": payload_len},
                "channel": {"snr_db": 12.0, "f3db_ghz": 6.0},
                "equalizer": {"mmse_init": mmse_init, "ddlms": ddlms},
            }
        )
        decided.append(rx.demodulate(wave, rx.acquire(wave)).payload_bits)
    assert np.array_equal(*decided)
    assert np.count_nonzero(decided[0] != bits) > 0


@pytest.mark.parametrize("setting", ["ddlms", "mmse_ddlms"])
def test_default_step_holds_default_frame_at_14db(setting):
    # the default frame's 1 355 payload beats outlast the growth of an
    # unstable step at the 242-beat loop delay: mu = 1e-2 makes 1 466
    # (MMSE + DD-LMS) and 39 (DD-LMS only) errors here
    cfg = {"channel": {"snr_db": 14.0}}
    assert equalizer_errors(cfg, setting) == (0, framing.FrameLayout().payload_len)


@pytest.mark.parametrize("snr_db", [14.0, 18.0])
def test_equalizer_no_worse_than_none(snr_db):
    cfg = {"frame": {"payload_len": 30_000}, "channel": {"snr_db": snr_db}}
    _, upper = metrics.wilson_interval(*equalizer_errors(cfg, "no_eq"))
    for setting in ("mmse", "ddlms", "mmse_ddlms"):
        errors, total = equalizer_errors(cfg, setting)
        assert errors / total <= upper, setting


@pytest.mark.parametrize(
    "cfg_dict",
    [
        {"channel": {"snr_db": 14.0, "clock_ppm": 300.0}},
        {"tx": {"rrc_rolloff": 1 / 64}, "channel": {"clock_ppm": 100.0}},
    ],
    ids=["14dB_300ppm", "noiseless_rolloff_min_100ppm"],
)
def test_stage2_timing_holds_drift(cfg_dict):
    # a PI timing loop lost lock on both and decided about a third to a half
    # of the bits wrong while the burst reported ok
    rx, wave, bits = make_burst({**cfg_dict, "frame": {"payload_len": 30_000}}, payload_seed=1000)
    report = rx.receive(wave, bits)
    assert report.status == "ok"
    assert report.bit_errors / report.bits_total < 1e-3


@pytest.mark.parametrize(
    "channel_cfg, fit",
    [
        ({"snr_db": 20.0, "f3db_ghz": 4.0}, "no_eq"),
        ({"snr_db": 20.0, "f3db_ghz": 4.0}, "mmse"),
        ({"snr_db": 14.0, "f3db_ghz": 5.0}, "mmse"),
    ],
    ids=["4GHz_20dB_from_gain", "4GHz_20dB_from_mmse", "5GHz_14dB_from_mmse"],
)
def test_ddlms_improves_on_its_fit(channel_cfg, fit):
    # two default 130 000-bit bursts (payload seeds 1000-1001, channel seeds
    # 1-2): tracking from the fitted taps makes fewer errors than the fit
    # alone, by more than the square root of the fit's count, here 21 043
    # against 32 241 from a gain, and 668 against 703 and 638 against 694
    # from MMSE taps
    tracked = {"no_eq": "ddlms", "mmse": "mmse_ddlms"}[fit]

    def errors(setting):
        return sum(
            equalizer_errors({"seed": seed, "channel": channel_cfg}, setting, payload_seed)[0]
            for payload_seed, seed in [(1000, 1), (1001, 2)]
        )

    untracked = errors(fit)
    assert errors(tracked) < untracked - math.sqrt(untracked)


def test_mmse_taps_no_worse_than_gain_under_drift():
    # the taps are fitted at the training beats' own taus, so a 100 ppm
    # drift leaves them as good as a plain gain over the whole payload
    cfg = {"frame": {"payload_len": 30_000}, "channel": {"snr_db": 14.0, "clock_ppm": 100.0}}
    gain, _ = equalizer_errors(cfg, "no_eq", payload_seed=1000)
    for setting in ("mmse", "mmse_ddlms"):
        assert equalizer_errors(cfg, setting, payload_seed=1000)[0] <= gain, setting


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
    wave[p + 72 : p + 972] = 0.0
    report = rx.receive(wave, bits)
    no_eq, _, _ = noiseless_burst(mmse_init=False, ddlms=False)
    assert report.status == "ok"
    assert report.bit_errors == no_eq.receive(wave, bits).bit_errors


def test_demodulate_leaves_acquisition_unchanged():
    # stage 2 reads tau0 and the sync position and keeps no state, so
    # demodulating one acquisition twice decides the same bits
    rx, wave, _ = make_burst(DRIFT_DDLMS)
    acq = rx.acquire(wave)
    kept = replace(acq)
    first = rx.demodulate(wave, acq)
    second = rx.demodulate(wave, acq)
    assert np.array_equal(first.payload_bits, second.payload_bits)
    assert first.mse_trace == second.mse_trace
    assert np.array_equal(first.taus, second.taus)
    assert acq == kept


def stage2_taus(S, tau_ref):
    """Stage-2 taus from the detector sums ``S``, each beat's moving sum taken on its own.

    Beat ``b`` sums ``S`` over beats ``b - W1/2 .. b + W1/2 - 1`` that exist,
    the phases of those sums are unwrapped, and its tau is read from one
    ``np.polyfit`` line over every beat.
    """
    n = len(S)
    sums = [sum(S[max(b - W1 // 2, 0) : b + W1 // 2]) for b in range(n)]
    phase = np.unwrap(np.angle(sums)) * txchain.SPS / (2 * np.pi)
    taus = np.polyval(np.polyfit(np.arange(n), phase, 1), np.arange(n))
    return taus + txchain.SPS * np.round((tau_ref - taus[0]) / txchain.SPS)


def receive_per_beat(rx, wave, detect_beat):
    """Reference receiver that runs every stage one beat at a time, in frame order.

    Starts from the detected beat and returns the payload bits, the MSE trace,
    the sync position, the stage-2 taus and tau0.  Every spectrum is a half
    spectrum, 73 bins per beat and 65 per folded block.  tau0 sums every
    window beat that passes detection, and stage 1 corrects each window beat
    by it, the detected one first.  Stage 2 reads its taus from the detector
    sums of its own beats (:func:`stage2_taus`).  The payload runs the delayed,
    constrained LMS of the equalizer: beat b is equalized with the fitted
    taps plus every gradient of beats up to b - DDLMS_DELAY and decided at
    0.5.  A gradient is formed when it lands, from the 96 x LAGS.size block of its
    beat's samples read at each lag, each bin of the beat divided first by
    its mean power over the first DDLMS_DELAY payload beats.
    """
    cfg = rx.cfg
    # acquisition beat b is the window padded[108 b : 108 b + 144]
    padded = np.concatenate([np.zeros(36), wave])
    window = range(detect_beat, min(detect_beat + 1 + rx.acquire_beats, len(wave) // 108))
    beats = np.array([padded[108 * b : 108 * b + 144] for b in window])
    X_win = rxfront.beat_spectra(beats, rx.h_rx)
    tau0 = rxfront.estimate_initial_spo(X_win[rxfront.detect_frame(X_win)])
    symbols = np.concatenate(
        [fft_pow2(eq.strip_rolloff(fd_interpolate(X, tau0)), inverse=True)[32:] for X in X_win]
    )
    sync = framesync.find_sync(symbols, rx.pn, offset=96 * detect_beat)

    # stage-2 beat j, Preamble B first, is the window wave[p - 36 + 108 j : p + 108 + 108 j]
    n_pay = -(-rx.layout.payload_len // 96)
    first_pay = 1 + rx.n_c_beats
    beats = [wave[sync.p - 36 + 108 * j : sync.p + 108 + 108 * j] for j in range(first_pay + n_pay)]
    X = rxfront.beat_spectra(np.array(beats), rx.h_rx)
    k = godard_band(cfg.tx.rrc_rolloff)
    S = [np.sum(x[k] * x[128 - k]) for x in X]
    taus = stage2_taus(S, tau0 - sync.frac)
    corrected = [fd_interpolate(x, tau) for x, tau in zip(X, taus)]
    y_train = eq.strip_rolloff(np.array(corrected[1:first_pay]))
    state = eq.FdeState()
    state.initialize(y_train, rx.c_ref, eq.LAGS if cfg.equalizer.mmse_init else [0])
    reads = (np.arange(32, 128)[:, None] - eq.LAGS) % 128
    Y_pay = [eq.strip_rolloff(x) for x in corrected[first_pay:]]
    w, z, payload, mse = state.w, [], [], []
    for b, Y in enumerate(Y_pay):
        if cfg.equalizer.ddlms and b >= eq.DDLMS_DELAY:
            if b == eq.DDLMS_DELAY:
                power = np.mean(np.abs(Y_pay[:b]) ** 2, axis=0)
            j = b - eq.DDLMS_DELAY
            white = np.divide(Y_pay[j], power, out=np.zeros(65, complex), where=power > 0)
            w = w + 2.0 * eq.DDLMS_MU * fft_pow2(white, inverse=True)[reads].T @ (payload[j] - z[j])
        W = np.zeros(128)
        W[eq.LAGS % 128] = w
        z.append(fft_pow2(Y * fft_pow2(W), inverse=True)[32:])
        payload.append((z[b] > 0.5).astype(np.uint8))
        mse.append(float(np.sum((z[b] - payload[b]) ** 2)))
    bits = np.concatenate(payload)[: rx.layout.payload_len]
    return bits, mse, sync.p1, taus, tau0


@pytest.mark.parametrize(
    "cfg_dict",
    [
        DRIFT_DDLMS,
        LOWPASS_MMSE,
        {"frame": {"payload_len": 1920}, "tx": {"rrc_rolloff": 0.125}},
        LONG_DDLMS,
        {"frame": {"payload_len": 1920}, "channel": {"gap_samples": 108 * 31 + 99}},
        {"frame": {"payload_len": 1920}, "channel": {"gap_samples": 108 * 100}},
    ],
    ids=[
        "14dB_100ppm_ddlms", "4GHz_20dB_mmse", "noiseless_rolloff_0.125", "600_beats_ddlms",
        "detected_on_chunk_end", "detected_in_fourth_pass",
    ],
)
def test_batched_receiver_matches_per_beat_reference(cfg_dict):
    # roll-off 0.125 is the one roll-off whose band range reaches bin 56,
    # the partner of the Nyquist bin; the detector leaves it out, and the
    # reference's detector reads the same band
    rx, wave, _ = make_burst(cfg_dict)
    acq = rx.acquire(wave)
    demod = rx.demodulate(wave, acq)
    bits, mse, p1, taus, tau0 = receive_per_beat(rx, wave, acq.detect_beat)
    assert (acq.sync.p1, acq.tau0) == (p1, tau0)
    assert np.array_equal(demod.payload_bits, bits)
    np.testing.assert_allclose(demod.mse_trace, mse, rtol=1e-12)
    assert len(demod.taus) == len(taus)
    assert np.max(np.abs(demod.taus - taus)) <= 1e-9 * np.max(np.abs(taus))


@pytest.mark.parametrize(
    "cfg_dict, errors, digest",
    [
        (DRIFT_DDLMS, 0, "4ed8aa38f59c12b1a28043c1a2a764ee88736d41608aaa56c97d4abb1372e3f3"),
        (LOWPASS_MMSE, 14, "a8a9120556cc92c97a6b7661363c0caf08fa017e0dcec2b22e75a8b6ea5606fb"),
        (LONG_DDLMS, 91, "7eb99add80f898cf056929cabc27792acfcb23d8450929d68777b7e4c67c558e"),
    ],
    ids=["1920_bits_14dB_100ppm_ddlms", "3840_bits_4GHz_20dB_mmse", "57600_bits_6GHz_12dB_ddlms"],
)
def test_decisions_pinned(cfg_dict, errors, digest):
    """Decided bits and error count of three fixed bursts, pinned.

    A change meant only to make the receiver faster must not flip a bit, so
    this fails on any decision change.  A change to the equalizer or another
    stage that alters decisions on purpose re-pins these values and says so
    in CHANGES.md.
    """
    rx, wave, payload = make_burst(cfg_dict)
    bits = rx.demodulate(wave, rx.acquire(wave)).payload_bits
    assert int(np.count_nonzero(bits != payload)) == errors
    assert hashlib.sha256(np.asarray(bits, dtype=np.uint8).tobytes()).hexdigest() == digest
