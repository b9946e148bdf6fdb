"""Measurement of the burstrx burst chain for one workload and one seed.

Each burst draws its payload and channel noise from the workload seed and goes
``gen_payload_bits -> build_frame -> tx_waveform -> run_channel -> receive``
through the public API, timed with ``time.perf_counter`` in this one process.

* Untraced run (``trace=0``) gives the end-to-end metrics.  The workload's
  fixed burst set runs once for the BER, the burst statuses and the decision
  digest, then repeats until the run time is up; every repeat must reproduce
  the first decisions exactly.  ``setup_s`` is the median wall time of fresh
  interpreters running ``setup_probe.py``.
* Traced run (``trace=1``) gives the per-layer metrics.  Untraced and traced
  passes over the burst set alternate until the run time is up, and the traced
  decisions must equal the untraced ones.

Decided bits are taken from ``BurstReceiver.demodulate``'s return through a
pass-through hook on the receiver instance.

Host times are reported at a reference host speed.  The speed of a shared
host drifts by up to ~50% over tens of seconds, about evenly for all code;
on a 2-core shared VM this made raw run-to-run spreads of 15-27%.  A fixed
numpy + Python kernel that does not touch burstrx (``SpeedGauge``) runs after
every burst (and every set-up probe) for a tenth of its time, and that host
time is multiplied by ``REF_KERNEL_S`` over the kernel's mean time in that
sample.  The raw figures and the gauge reading are in the report.
"""

import os

# Pinned before numpy loads: the benchmark measures one single-threaded chain.
PINNED_THREADS = {
    name: "1"
    for name in (
        "OMP_NUM_THREADS",
        "OPENBLAS_NUM_THREADS",
        "MKL_NUM_THREADS",
        "VECLIB_MAXIMUM_THREADS",
        "NUMEXPR_NUM_THREADS",
    )
}
os.environ.update(PINNED_THREADS)

import hashlib  # noqa: E402
import json  # noqa: E402
import math  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
from collections import Counter, defaultdict  # noqa: E402
from dataclasses import dataclass, field  # noqa: E402
from pathlib import Path  # noqa: E402
from typing import Optional  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

import numpy as np  # noqa: E402
import scipy  # noqa: E402
from burstrx import channel, config, framing  # noqa: E402
from burstrx.receiver import BurstReceiver  # noqa: E402

import spans  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

STATUSES = ("ok", "detection_failed", "sync_failed")
SEED_STRIDE = 100_000   # channel noise seed of burst i: seed * SEED_STRIDE + i
SETUP_RUNS = 3
INIT_RUNS = 5
Z95 = 1.96
SAMPLES_PER_BEAT = 108  # receiver beat advance at 1.125 samples per symbol
GAUGE_SHARE = 0.1       # gauge time after a burst, as a share of the burst's time
REF_KERNEL_S = 0.6e-3   # SpeedGauge kernel time that defines the reference speed

SELF_MS_LAYERS = (
    "fourier.fft_pow2", "fourier.fft_144",
    "equalizer.ddlms_update", "equalizer.apply_fde", "equalizer.decide_demap",
    "equalizer.strip_rolloff", "equalizer.initialize",
    "timing.process_beat",
    "metrics.mse_point", "metrics.count_ber", "metrics.error_distribution",
    "rxfront.rx_slice_beats", "rxfront.beat_spectra", "rxfront.detect_frame",
    "framesync.find_sync",
    "txchain.tx_frame", "framing.build_frame", "prng.bits", "channel.run_channel",
)
CALLS_LAYERS = (
    "fourier.fft_pow2", "fourier.fft_144", "equalizer.ddlms_update",
    "timing.process_beat", "rxfront.detect_frame",
)
KNOWN_DEFECTS = [
    "MMSE + DD-LMS makes errors on a noiseless channel (paper_frame BER ~2e-3):"
    " the MMSE reference trains on the overlap-save wrap and the decimated"
    " DD-LMS error is not a bin error; recorded, not gated",
]


@dataclass
class Burst:
    index: int
    status: str                      # report status, or "raised" when receive raised
    chain_s: float                   # payload generation through receive
    rx_s: float                      # receive alone
    beats: int                       # 108-sample beats in the received waveform
    scale: float = 1.0               # host seconds -> reference-speed seconds
    bit_errors: int = 0
    bits_total: int = 0
    digest: Optional[str] = None     # sha256 of the decided payload bits
    bits: Optional[np.ndarray] = None
    layers: dict = field(default_factory=dict)


class DecisionHook:
    """Keeps the payload bits ``demodulate`` returns, without changing them.

    The class attribute is looked up on every call, so a traced
    ``BurstReceiver.demodulate`` is the one that runs while tracing.
    """

    def __init__(self, rx: BurstReceiver):
        self.bits = None
        cls = type(rx)

        def demodulate(waveform, acq):
            result = cls.demodulate(rx, waveform, acq)
            self.bits = result.payload_bits
            return result

        rx.demodulate = demodulate


class SpeedGauge:
    """Host speed meter: a fixed kernel of 128-point FFTs and Python arithmetic."""

    def __init__(self):
        k = np.arange(128)
        self.x = np.exp(-6j * np.pi * np.outer(np.arange(8), k) / 128)
        self.seconds = 0.0
        self.runs = 0

    def _kernel(self) -> float:
        acc = 0.0
        for i in range(32):
            y = np.fft.fft(self.x[i & 7])
            acc += float(np.abs(np.concatenate([y[:64], y[64:] * 0.5])).sum()) + i
        return acc

    def sample(self, budget_s: float) -> float:
        """Run the kernel at least once, until ``budget_s`` is spent.

        Returns the factor that turns host seconds just before this sample
        into reference-speed seconds.
        """
        spent, runs = 0.0, 0
        while spent < budget_s or runs == 0:
            t0 = time.perf_counter()
            self._kernel()
            spent += time.perf_counter() - t0
            runs += 1
        self.seconds += spent
        self.runs += runs
        return REF_KERNEL_S * runs / spent

    def scale(self) -> float:
        """Factor turning host seconds of this run into reference-speed seconds."""
        return REF_KERNEL_S * self.runs / self.seconds

    def reading(self) -> dict:
        return {"kernel_ms": self.seconds / self.runs * 1e3,
                "reference_kernel_ms": REF_KERNEL_S * 1e3, "scale": self.scale()}


def payload_seed(seed: int, index: int) -> int:
    return int(np.random.SeedSequence([seed, index]).generate_state(1, np.uint64)[0])


def workload_config(name: str, seed: int, payload_len: Optional[int] = None) -> dict:
    data = json.loads(json.dumps(WORKLOADS[name].config))
    data["seed"] = seed * SEED_STRIDE
    if payload_len is not None:
        data.setdefault("frame", {})["payload_len"] = payload_len
    return data


def run_burst(rx, cfg, hook, seed, index, problems, raised) -> Burst:
    clock = time.perf_counter
    t0 = clock()
    payload = framing.gen_payload_bits(rx.layout, payload_seed(seed, index))
    frame = framing.build_frame(rx.layout, payload)
    waveform = channel.run_channel(rx.tx_waveform(frame), cfg.channel_config(seed_offset=index))
    hook.bits = None
    t1 = clock()
    try:
        report = rx.receive(waveform, payload)
    except Exception as exc:  # a defect: counted and recorded, the run goes on
        report = None
        raised[type(exc).__name__] += 1
        problems.append(f"burst {index}: receive raised {type(exc).__name__}: {exc}")
    t2 = clock()
    burst = Burst(index, "raised" if report is None else report.status,
                  t2 - t0, t2 - t1, len(waveform) // SAMPLES_PER_BEAT)
    if report is None:
        return burst
    if burst.status not in STATUSES:
        problems.append(f"burst {index}: unknown status {burst.status!r}")
    if burst.status != "ok":
        return burst
    n = len(payload)
    if hook.bits is None or len(hook.bits) != n:
        problems.append(f"burst {index}: ok, but demodulate gave no {n} decided bits")
        return burst
    errors = int(np.count_nonzero(np.asarray(hook.bits) != payload))
    bits = np.asarray(hook.bits, dtype=np.uint8)
    if report.bits_total != n or report.bit_errors != errors:
        problems.append(
            f"burst {index}: report says {report.bit_errors}/{report.bits_total}"
            f" errors, decisions give {errors}/{n}"
        )
    burst.bit_errors, burst.bits_total = errors, n
    burst.bits = bits
    burst.digest = hashlib.sha256(bits.tobytes()).hexdigest()
    return burst


def run_pass(rx, cfg, hook, seed, indices, problems, raised, gauge, tracer=None):
    out = []
    for index in indices:
        if tracer is not None:
            tracer.burst = index
        burst = run_burst(rx, cfg, hook, seed, index, problems, raised)
        if tracer is not None:
            burst.layers = tracer.take()
        out.append(burst)
        burst.scale = gauge.sample(GAUGE_SHARE * burst.chain_s)
    return out


def check_same(reference, bursts, what, problems):
    for ref, got in zip(reference, bursts):
        if (ref.status, ref.digest) != (got.status, got.digest):
            problems.append(
                f"burst {got.index}: {what} gave {got.status}/{got.digest},"
                f" first pass {ref.status}/{ref.digest}"
            )


def decisions(first) -> dict:
    digest = hashlib.sha256()
    for burst in first:
        if burst.bits is not None:
            digest.update(burst.bits.tobytes())
    ok = [b for b in first if b.status == "ok"]
    errors = sum(b.bit_errors for b in ok)
    total = sum(b.bits_total for b in ok)
    return {
        "digest": digest.hexdigest(),
        "bit_errors": errors,
        "bits_total": total,
        "ber": errors / total if total else None,
        "ber_upper95": wilson_upper(errors, total),
        "status_counts": dict(Counter(b.status for b in first)),
        "ok_frac": len(ok) / len(first),
    }


def wilson_upper(errors: int, total: int, z: float = Z95) -> float:
    """Upper end of the Wilson score interval; above 0 even with no errors."""
    if total == 0:
        return 1.0
    p = errors / total
    denom = 1 + z * z / total
    center = p + z * z / (2 * total)
    half = z * math.sqrt(p * (1 - p) / total + z * z / (4 * total * total))
    return min(1.0, (center + half) / denom)


def setup_seconds(cfg_dict: dict, runs: int, gauge: SpeedGauge) -> list:
    """Wall times of fresh interpreters importing burstrx and building a receiver.

    Returns ``(raw, scaled)`` seconds per run, ``scaled`` at reference speed.
    One unmeasured run first byte-compiles the sources and pages in the
    libraries, which a user pays once, not on every start.
    """
    cmd = [sys.executable, str(Path(__file__).with_name("setup_probe.py")),
           json.dumps(cfg_dict)]
    subprocess.run(cmd, check=True)
    raw, scaled = [], []
    for _ in range(runs):
        t0 = time.perf_counter()
        subprocess.run(cmd, check=True)
        raw.append(time.perf_counter() - t0)
        scaled.append(raw[-1] * gauge.sample(GAUGE_SHARE * raw[-1]))
    return raw, scaled


def quartiles_ms(values) -> dict:
    ms = [v * 1e3 for v in values]
    q = statistics.quantiles(ms, n=4) if len(ms) > 1 else [ms[0]] * 3
    return {"n": len(ms), "p25": q[0], "p50": statistics.median(ms), "p75": q[2]}


def untraced_run(rx, cfg, hook, seed, n_bursts, seconds, payload_len, problems, raised):
    gauge = SpeedGauge()
    start = time.perf_counter()
    first = run_pass(rx, cfg, hook, seed, range(n_bursts), problems, raised, gauge)
    bursts = list(first)
    i = 0
    while time.perf_counter() - start < seconds:
        burst = run_pass(rx, cfg, hook, seed, [i % n_bursts], problems, raised, gauge)[0]
        check_same([first[i % n_bursts]], [burst], "repeat", problems)
        burst.bits = None
        bursts.append(burst)
        i += 1
    # Decoded bursts all do the same work; a lost burst stops early, so counting
    # it would make the rate depend on how many bursts a seed loses.
    timed = [b for b in bursts if b.status == "ok"] or bursts
    chain = [b.chain_s for b in timed]
    rx_time = [b.rx_s for b in timed]
    bits = payload_len * len(timed)
    raw = {
        "rx_mbit_s": bits / sum(rx_time) / 1e6,
        "chain_mbit_s": bits / sum(chain) / 1e6,
        "burst_ms_p50": statistics.median(chain) * 1e3,
    }
    d = decisions(first)
    metrics = {
        "rx_mbit_s": (bits / sum(b.rx_s * b.scale for b in timed) / 1e6, "Mbit/s"),
        "chain_mbit_s": (bits / sum(b.chain_s * b.scale for b in timed) / 1e6, "Mbit/s"),
        "burst_ms_p50": (statistics.median(b.chain_s * b.scale for b in timed) * 1e3, "ms"),
        "ber_upper95": (d["ber_upper95"], "ratio"),
        "ok_frac": (d["ok_frac"], "ratio"),
    }
    detail = {"decisions": d, "burst_ms": quartiles_ms(chain),
              "receive_ms": quartiles_ms(rx_time), "raw": raw,
              "host_speed": gauge.reading()}
    return bursts, metrics, detail


def traced_run(rx, cfg, cfg_dict, hook, seed, n_bursts, seconds, problems, raised):
    gauge = SpeedGauge()
    tracer = spans.Tracer()
    init_ms, from_dict_ms = [], []
    with tracer:
        for _ in range(INIT_RUNS):
            BurstReceiver(config.from_dict(cfg_dict))
            agg = tracer.take()
            init_ms.append(agg["receiver.init"]["total"] * 1e3)
            from_dict_ms.append(agg["config.from_dict"]["total"] * 1e3)
    plain, traced = [], []
    start = time.perf_counter()
    first = None
    pair_s = 0.0
    # Whole pairs only, so counts per burst are exact; stop before overrunning.
    while first is None or time.perf_counter() - start + pair_s <= seconds:
        pair_start = time.perf_counter()
        cycle = run_pass(rx, cfg, hook, seed, range(n_bursts), problems, raised, gauge)
        with tracer:
            traced_cycle = run_pass(rx, cfg, hook, seed, range(n_bursts), problems,
                                    raised, gauge, tracer)
        if not tracer.restored():
            problems.append("traced wrappers were left in place")
        first = first or cycle
        check_same(first, cycle, "untraced pass", problems)
        check_same(first, traced_cycle, "traced pass", problems)
        for burst in traced_cycle + (cycle if cycle is not first else []):
            burst.bits = None
        plain += cycle
        traced += traced_cycle
        pair_s = time.perf_counter() - pair_start

    agg = defaultdict(lambda: {"self": 0.0, "total": 0.0, "calls": 0, "units": 0})
    for burst in traced:
        for name, a in burst.layers.items():
            agg[name]["self"] += a["self"] * burst.scale
            agg[name]["total"] += a["total"] * burst.scale
            agg[name]["calls"] += a["calls"]
            agg[name]["units"] += a["units"]
    n = len(traced)
    beats = sum(b.beats for b in traced)
    ms = 1e3 / n    # per-burst milliseconds at reference speed
    metrics = {}
    for name in SELF_MS_LAYERS:
        metrics[f"{name}.self_ms"] = (agg[name]["self"] * ms, "ms")
    for name in CALLS_LAYERS:
        metrics[f"{name}.calls"] = (agg[name]["calls"] / n, "count")
    rows = agg["rxfront.beat_spectra"]["units"]
    metrics["rxfront.beat_spectra.rows"] = (rows / n, "count")
    metrics["rxfront.spectra_per_beat"] = (rows / beats, "ratio")
    for name in spans.RECEIVER_SPANS:
        metrics[f"{name}.ms"] = (agg[name]["total"] * ms, "ms")
    receiver_self = sum(agg[name]["self"] for name in spans.RECEIVER_SPANS)
    metrics["receiver.self_ms"] = (receiver_self * ms, "ms")
    metrics["receiver.init.ms"] = (statistics.median(init_ms) * gauge.scale(), "ms")
    metrics["config.from_dict.ms"] = (statistics.median(from_dict_ms) * gauge.scale(), "ms")
    metrics["trace.overhead_frac"] = (
        sum(b.rx_s * b.scale for b in traced) / sum(b.rx_s * b.scale for b in plain) - 1,
        "ratio")
    metrics["trace.coverage_frac"] = (
        1 - receiver_self / agg["receiver.receive"]["total"], "ratio")
    detail = {"decisions": decisions(first), "traced_bursts": n,
              "untraced_bursts": len(plain), "layers_not_found": tracer.missing,
              "host_speed": gauge.reading()}
    return plain + traced, metrics, detail


def git_sha() -> Optional[str]:
    """HEAD of the checkout when it is a git work tree, read without running git."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def run_metadata(seed: int, n_bursts: int) -> dict:
    return {
        "git_sha": git_sha(),
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_count": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "seed": seed,
        "bursts_per_cycle": n_bursts,
        "thread_env": PINNED_THREADS,
    }


def measure(workload: str, seed: int, seconds: float, trace: int,
            bursts: Optional[int] = None, payload_len: Optional[int] = None,
            setup_runs: int = SETUP_RUNS):
    """Run one workload; returns ``(result, report)``.

    ``result`` is the benchmark's result object; ``report`` holds the decision
    digest, burst statuses, timing quartiles with their sample counts, the
    metric-to-layer map and the run metadata.  ``bursts`` and ``payload_len``
    shrink the workload for smoke tests.
    """
    w = WORKLOADS[workload]
    n_bursts = bursts or w.bursts
    cfg_dict = workload_config(workload, seed, payload_len)
    problems, raised = [], Counter()
    setup_gauge = SpeedGauge()
    setup = setup_seconds(cfg_dict, setup_runs, setup_gauge) if trace == 0 else None
    cfg = config.from_dict(cfg_dict)
    rx = BurstReceiver(cfg)
    hook = DecisionHook(rx)
    run_burst(rx, cfg, hook, seed, 0, [], Counter())   # warm-up, not counted
    if trace:
        all_bursts, metrics, detail = traced_run(
            rx, cfg, cfg_dict, hook, seed, n_bursts, seconds, problems, raised)
    else:
        all_bursts, metrics, detail = untraced_run(
            rx, cfg, hook, seed, n_bursts, seconds, cfg.frame.payload_len,
            problems, raised)
        raw_setup, scaled_setup = setup
        metrics["setup_s"] = (statistics.median(scaled_setup), "s")
        rss_kib = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
        metrics["peak_rss_mb"] = (rss_kib / 1024, "MB")
        detail["raw"]["setup_s"] = statistics.median(raw_setup)
        detail["setup_s_runs"] = raw_setup
        detail["setup_host_speed"] = setup_gauge.reading()
    result = {
        "correct": not problems,
        "attempted": len(all_bursts),
        "failed": sum(raised.values()),
        "metrics": {k: {"value": float(v), "unit": u} for k, (v, u) in metrics.items()},
    }
    report = {
        "workload": workload,
        "trace": trace,
        "payload_len": cfg.frame.payload_len,
        **detail,
        "raised": dict(raised),
        "problems": problems[:20],
        "known_defects": KNOWN_DEFECTS,
        "layers": w.layers,
        "meta": run_metadata(seed, n_bursts),
    }
    return result, report
