"""Burst receiver orchestration: acquisition, synchronization, demodulation.

Reception happens in two passes over the sampled waveform:

* **Acquisition** slices beats from the stream start, looks for the
  Preamble-A tone peak, starts the timing loop at the tone-pair phase of the
  following beat, and runs detection-to-sync: every corrected beat is folded
  to 128 bins, inverse transformed, and its 96 valid symbols appended to a
  1-sps stream that frame synchronization scans for Preamble B.

* **Synchronized demodulation** re-slices the waveform so beat boundaries
  align with the frame: with the sync position ``p = floor(p1 * 1.125)``,
  slicing restarts at ``p - 144`` samples, which lands Preamble B exactly in
  the first full beat, the training block in the next eight, and each payload
  beat on a 96-bit boundary.  Only the beats up to the last payload beat are
  transformed.  The fractional residue of ``p1 * 1.125`` is taken off the
  timing loop's tau, whose state carries over from acquisition.  The pass
  then runs in three phases, beat by beat in frame order:

  1. the Preamble-B beat goes through the timing loop only;
  2. the eight training beats are timing-corrected and folded to 128 bins,
     and their stack initializes the MMSE taps;
  3. each payload beat is timing-corrected, folded and equalized, and one
     128-point inverse transform gives the time samples ``z`` that feed the
     bit decisions, the MSE trace point and the DD-LMS update.

Both ends shape with the same RRC response, each with the default 16-symbol
linear-phase delay.  Index bookkeeping: the matched filter pair therefore
delays the stream by 32 symbols and the valid block region trails the beat by
another 32, so stage-1 symbol ``m`` is transmit symbol ``m - 64`` for a
gap-free, offset-free channel.  All of this is absorbed by the measured
``p1``; nothing downstream needs the gap or channel delay.
"""

from dataclasses import dataclass

import numpy as np

from . import equalizer as eq
from . import framesync, framing, metrics, rxfront, txchain
from .config import SimConfig
from .errors import DetectionError, SyncError
from .fourier import fft_pow2
from .timing import FdtrLoop

VALID_OFFSET = 32          # first valid symbol inside the 128-point block
SYNC_REALIGN = 144         # samples between sync position and stage-2 origin


@dataclass
class Acquisition:
    detect_beat: int
    tau0: float
    loop: FdtrLoop
    sync: framesync.SyncResult
    stage1_trace_len: int


@dataclass
class DemodResult:
    payload_bits: np.ndarray
    mse_trace: list


class BurstReceiver:
    """One receiver instance per configuration; stateless across bursts."""

    def __init__(self, cfg: SimConfig):
        self.cfg = cfg
        self.layout = cfg.frame
        self.h_rx = txchain.rrc_response(
            cfg.tx.rrc_rolloff, txchain.DEFAULT_DELAY_SYMBOLS
        )
        self.pn = framing.pn_sequence(self.layout.pn_seed)
        self.c_ref = eq.build_reference(self.layout)
        self.n_c_beats = self.layout.preamble_c_len // txchain.SYMBOLS_PER_BEAT

    def tx_waveform(self, symbols: np.ndarray) -> np.ndarray:
        return txchain.tx_frame(
            symbols, self.cfg.tx.rrc_rolloff, txchain.DEFAULT_DELAY_SYMBOLS,
            flush_beats=3,
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
                if rxfront.detect_frame(X[i], rx_cfg.detect_threshold).detected:
                    detect_beat = start + i
                    break
            if detect_beat is not None:
                break
        if detect_beat is None or detect_beat + 2 >= n_beats:
            raise DetectionError("no burst detected in the waveform")

        first_beat = detect_beat + 1
        last_beat = min(first_beat + rx_cfg.acquire_beats, n_beats)
        X_acq = rxfront.beat_spectra(beats[first_beat:last_beat], self.h_rx)

        tau0, _ = rxfront.estimate_initial_spo(X_acq[0])
        t = self.cfg.timing
        loop = FdtrLoop(kp=t.kp, ki=t.ki, alpha=self.cfg.tx.rrc_rolloff, tau=tau0)
        symbols = np.concatenate(
            [self._recover_block(loop.process_beat(X))[VALID_OFFSET:].real
             for X in X_acq]
        )
        sync = framesync.find_sync(
            symbols, self.pn, ratio_min=rx_cfg.sync_ratio_min,
            offset=96 * first_beat + VALID_OFFSET,
        )
        return Acquisition(
            detect_beat=detect_beat,
            tau0=tau0,
            loop=loop,
            sync=sync,
            stage1_trace_len=len(loop.trace),
        )

    def demodulate(self, waveform: np.ndarray, acq: Acquisition) -> DemodResult:
        """Frame-aligned pass: training, equalization, payload decisions."""
        origin = acq.sync.p - SYNC_REALIGN
        if origin < 0:
            raise SyncError(f"sync position {acq.sync.p} leaves no room to realign")
        beats = rxfront.rx_slice_beats(waveform[origin:])

        n_pay_beats = -(-self.layout.payload_len // txchain.SYMBOLS_PER_BEAT)
        first_c = 2
        first_pay = first_c + self.n_c_beats
        last_needed = first_pay + n_pay_beats
        if last_needed > len(beats):
            raise SyncError("waveform too short past the sync position")
        X = rxfront.beat_spectra(beats[:last_needed], self.h_rx)

        loop = acq.loop
        loop.tau -= acq.sync.frac
        loop.process_beat(X[1])  # Preamble B: timing only
        y_train = eq.strip_rolloff(
            np.array([loop.process_beat(X[m]) for m in range(first_c, first_pay)])
        )
        eq_cfg = self.cfg.equalizer
        state = eq.FdeState(mu=eq_cfg.mu)
        if eq_cfg.mmse_init:
            state.initialize(y_train, self.c_ref)

        mse_trace = []
        payload = []
        for m in range(first_pay, last_needed):
            Y = eq.strip_rolloff(loop.process_beat(X[m]))
            Z = eq.apply_fde(Y, state.W)
            z = fft_pow2(Z, inverse=True)
            payload.append(eq.decide_demap(z[VALID_OFFSET:], state.threshold))
            d = (z.real > state.threshold.value).astype(np.float64)
            mse_trace.append(metrics.mse_point(z, d))
            if eq_cfg.ddlms:
                eq.ddlms_update(state, Z, z, Y)

        bits = np.concatenate(payload)[: self.layout.payload_len]
        return DemodResult(payload_bits=bits, mse_trace=mse_trace)

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
            (1 if beat < split else 2, beat, tau / txchain.SPS)
            for beat, tau in enumerate(trace)
        ]
