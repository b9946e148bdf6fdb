"""Burst receiver orchestration: acquisition, synchronization, demodulation.

Reception happens in two passes over the sampled waveform:

* **Acquisition** slices beats from the stream start, looks for the
  Preamble-A tone peak, seeds the timing loop from the tone-pair phase on the
  following beat, and runs detection-to-sync: every corrected beat is folded
  to 128 bins, inverse transformed, and its 96 valid symbols appended to a
  1-sps stream that frame synchronization scans for Preamble B.

* **Synchronized demodulation** re-slices the waveform so beat boundaries
  align with the frame: with the sync position ``p = floor(p1 * 1.125)``,
  slicing restarts at ``p - 144`` samples, which lands Preamble B exactly in
  the first full beat, the training block in the next eight, and each payload
  beat on a 96-bit boundary.  The fractional residue of ``p1 * 1.125`` is
  handed to the timing loop, whose state carries over from acquisition.

Index bookkeeping: the matched filter pair delays the stream by 32 symbols
and the valid block region trails the beat by another 32, so stage-1 symbol
``m`` is transmit symbol ``m - 64`` for a gap-free, offset-free channel.  All
of this is absorbed by the measured ``p1``; nothing downstream needs the gap
or channel delay.
"""

from dataclasses import dataclass, field

import numpy as np

from . import equalizer as eq
from . import framesync, framing, metrics, rxfront, txchain
from .config import SimConfig
from .errors import DetectionError, SyncError
from .fourier import fft_pow2
from .timing import FdtrConfig, FdtrLoop

VALID_OFFSET = 32          # first valid symbol inside the 128-point block
SYNC_REALIGN = 144         # samples between sync position and stage-2 origin


@dataclass
class Acquisition:
    detect_beat: int
    tau0: float
    tau0_confident: bool
    loop: FdtrLoop
    symbols: np.ndarray            # recovered 1-sps stream (stage 1)
    first_symbol_index: int        # absolute index of symbols[0]
    sync: framesync.SyncResult
    stage1_trace_len: int = 0


@dataclass
class DemodResult:
    payload_bits: np.ndarray
    mse_trace: list = field(default_factory=list)
    taps: np.ndarray = None
    n_payload_beats: int = 0


class BurstReceiver:
    """One receiver instance per configuration; stateless across bursts."""

    def __init__(self, cfg: SimConfig):
        self.cfg = cfg
        self.layout = cfg.layout()
        delay = cfg.tx.rrc_delay_symbols
        if cfg.rx.rrc_at_rx:
            self.h_rx = txchain.rrc_response(cfg.tx.rrc_rolloff, delay)
            self.tx_delay = delay
        else:
            # single-shaping mode: the transmitter carries the whole delay so
            # the stream lag stays 32 symbols and sync arithmetic is unchanged
            self.h_rx = None
            self.tx_delay = 2 * delay
        self.pn = framing.pn_sequence(self.layout.pn_seed)
        self.c_ref = eq.build_reference(self.layout)
        self.n_c_beats = self.layout.preamble_c_len // txchain.SYMBOLS_PER_BEAT

    def tx_waveform(self, frame: framing.SymbolStream) -> np.ndarray:
        return txchain.tx_frame(
            frame.symbols, self.cfg.tx.rrc_rolloff, self.tx_delay, flush_beats=3
        )

    def _make_loop(self) -> FdtrLoop:
        t = self.cfg.timing
        return FdtrLoop(
            FdtrConfig(
                kp=t.kp, ki=t.ki, alpha=self.cfg.tx.rrc_rolloff,
                deadzone=t.deadzone,
            )
        )

    def _recover_block(self, corrected: np.ndarray) -> np.ndarray:
        """Corrected 144-bin spectrum -> 128 time samples at 1 sps."""
        return fft_pow2(eq.strip_rolloff(corrected), inverse=True)

    def acquire(self, waveform: np.ndarray) -> Acquisition:
        """Detect the burst, seed the timing loop, and locate Preamble B."""
        beats = rxfront.rx_slice_beats(waveform)
        n_beats = len(beats)
        rx_cfg = self.cfg.rx
        detect_beat = None
        chunk = 32
        for start in range(0, n_beats, chunk):
            X = rxfront.beat_spectra(beats[start : start + chunk], self.h_rx)
            for i in range(len(X)):
                res = rxfront.detect_frame(
                    X[i], rx_cfg.detect_threshold, rx_cfg.detect_bin_tolerance
                )
                if res.detected:
                    detect_beat = start + i
                    break
            if detect_beat is not None:
                break
        if detect_beat is None or detect_beat + 2 >= n_beats:
            raise DetectionError("no burst detected in the waveform")

        first_beat = detect_beat + 1
        last_beat = min(first_beat + rx_cfg.acquire_beats, n_beats)
        X_acq = rxfront.beat_spectra(beats[first_beat:last_beat], self.h_rx)

        tau0, confident = rxfront.estimate_initial_spo(X_acq[0])
        loop = self._make_loop()
        symbols = []
        use_init = self.cfg.timing.spo_init
        for i in range(len(X_acq)):
            corrected = loop.process_beat(
                X_acq[i], tau_init=tau0 if (use_init and i == 0) else None
            )
            block = self._recover_block(corrected)
            symbols.append(block[VALID_OFFSET:].real)
        symbols = np.concatenate(symbols)
        first_symbol_index = 96 * first_beat + VALID_OFFSET

        sync = framesync.find_sync(
            symbols, self.pn, ratio_min=rx_cfg.sync_ratio_min,
            offset=first_symbol_index,
        )
        return Acquisition(
            detect_beat=detect_beat,
            tau0=tau0,
            tau0_confident=confident,
            loop=loop,
            symbols=symbols,
            first_symbol_index=first_symbol_index,
            sync=sync,
            stage1_trace_len=len(loop.trace),
        )

    def demodulate(self, waveform: np.ndarray, acq: Acquisition) -> DemodResult:
        """Frame-aligned pass: training, equalization, payload decisions."""
        origin = acq.sync.p - SYNC_REALIGN
        if origin < 0:
            raise SyncError(f"sync position {acq.sync.p} leaves no room to realign")
        beats = rxfront.rx_slice_beats(waveform[origin:])
        X = rxfront.beat_spectra(beats, self.h_rx)

        n_pay_beats = -(-self.layout.payload_len // txchain.SYMBOLS_PER_BEAT)
        first_c = 2
        first_pay = first_c + self.n_c_beats
        last_needed = first_pay + n_pay_beats
        if last_needed > len(X):
            raise SyncError("waveform too short past the sync position")

        loop = acq.loop
        eq_cfg = self.cfg.equalizer
        state = eq.FdeState(mu=eq_cfg.mu)
        y_train = np.empty((self.n_c_beats, txchain.N_IN), dtype=np.complex128)
        mse_trace = []
        payload = []

        for m in range(1, last_needed):
            corrected = loop.process_beat(
                X[m], sync_frac=acq.sync.frac if m == 1 else None
            )
            Y = eq.strip_rolloff(corrected)
            if first_c <= m < first_pay:
                y_train[m - first_c] = Y
                continue
            if m == first_pay and eq_cfg.mmse_init:
                state.initialize(y_train, self.c_ref)
            if m < first_pay:
                continue
            Z = eq.apply_fde(Y, state.W)
            z = fft_pow2(Z, inverse=True)
            samples = z[VALID_OFFSET:].real
            bits = eq.decide_demap(samples, state.threshold)
            payload.append(bits)
            decisions_full = (z.real > state.threshold.value).astype(np.float64)
            mse_trace.append(
                metrics.mse_point(Z, fft_pow2(decisions_full.astype(np.complex128)))
            )
            if eq_cfg.ddlms:
                eq.ddlms_update(state, Z, Y)

        bits = np.concatenate(payload)[: self.layout.payload_len]
        return DemodResult(
            payload_bits=bits,
            mse_trace=mse_trace,
            taps=state.W,
            n_payload_beats=n_pay_beats,
        )

    def receive(self, waveform: np.ndarray, payload_bits: np.ndarray) -> metrics.RunReport:
        """Full chain with structured failure reporting."""
        report = metrics.RunReport(seed=self.cfg.seed, config=self.cfg.to_dict())
        try:
            acq = self.acquire(waveform)
        except DetectionError:
            report.status = "detection_failed"
            return report
        except SyncError:
            report.status = "sync_failed"
            return report
        report.detect_beat = acq.detect_beat
        report.tau0 = acq.tau0
        report.sync_p1 = acq.sync.p1
        report.sync_p = acq.sync.p
        report.sync_frac = acq.sync.frac
        report.sync_peak = acq.sync.peak_value
        report.sync_second_peak = acq.sync.second_peak_value
        try:
            demod = self.demodulate(waveform, acq)
        except SyncError:
            report.status = "sync_failed"
            self._fill_spo(report, acq)
            return report
        ber = metrics.count_ber(demod.payload_bits, payload_bits)
        hist = metrics.error_distribution(ber.positions, self.layout.payload_len)
        report.ber = ber.ber
        report.bit_errors = ber.errors
        report.bits_total = ber.total
        report.error_histogram = list(hist.counts)
        report.chi2_stat = hist.chi2_stat
        report.chi2_p = hist.p_value
        report.mse_trace = demod.mse_trace
        self._fill_spo(report, acq)
        return report

    @staticmethod
    def _fill_spo(report: metrics.RunReport, acq: Acquisition) -> None:
        trace = acq.loop.trace
        split = acq.stage1_trace_len
        report.spo_trace = [
            (1 if i < split else 2, beat, tau / txchain.SPS)
            for i, (beat, tau) in enumerate(trace)
        ]
