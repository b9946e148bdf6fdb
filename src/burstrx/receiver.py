"""Burst receiver orchestration: acquisition, synchronization, demodulation.

Reception happens in two passes over the sampled waveform:

* **Acquisition** slices beats from the stream start and transforms them in
  chunks of 32, one detector call per chunk, until a beat shows the
  Preamble-A tone peak.  It starts the timing loop at the tone-pair phase of
  the following beat and runs detection-to-sync: the corrected beats are
  folded to 128 bins and inverse transformed, and the 96 valid symbols of
  each are joined into the 1-sps stream that frame synchronization scans for
  Preamble B.  The acquisition beats that the detection chunk already
  transformed are reused.

* **Synchronized demodulation** re-slices the waveform so beat boundaries
  align with the frame: with the sync position ``p = floor(p1 * 1.125)``,
  slicing restarts at ``p - 144`` samples, which lands Preamble B exactly in
  the first full beat, the training block in the next eight, and each payload
  beat on a 96-bit boundary.  Only the beats up to the last payload beat are
  transformed.  The fractional residue of ``p1 * 1.125`` is taken off the
  timing loop's tau, whose state carries over from acquisition.  The timing
  loop then corrects the Preamble-B, training and payload beats in one call;
  the eight folded training beats fit the equalizer taps against the known
  Preamble-C symbols (see :func:`equalizer.fit_taps`); the payload beats are
  equalized and inverse transformed, and their valid positions 32..127 are
  the time samples ``z`` that are decided.  Each payload symbol gets one
  decision, the bit the receiver outputs: DD-LMS forms its error against it
  and the MSE trace, scored over all payload beats at once, measures ``z``
  against it.

Every stage runs as one call over a stack of beats.  Three recursions inside
those calls stay per beat because each beat needs the state the previous one
left: the timing loop's tau (a scalar recursion on detector sums taken over
the whole stack, see :meth:`FdtrLoop.process_beat`), the decision threshold
(see :meth:`equalizer.ThresholdTracker.step`), and the DD-LMS taps.  With
DD-LMS off the taps are fixed, so all payload beats are equalized in one
multiply and decided in one :func:`equalizer.decide_demap` call.  With it on,
one :func:`equalizer.ddlms_update` call runs the whole payload: each beat is
decided with the taps the previous beat's update left, as beat-by-beat
processing does.

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
        self.c_ref = framing.gen_preamble_c(self.layout).reshape(-1, txchain.SYMBOLS_PER_BEAT)
        self.n_c_beats = len(self.c_ref)

    def tx_waveform(self, symbols: np.ndarray) -> np.ndarray:
        return txchain.tx_frame(
            symbols, self.cfg.tx.rrc_rolloff, txchain.DEFAULT_DELAY_SYMBOLS,
            flush_beats=3,
        )

    def acquire(self, waveform: np.ndarray) -> Acquisition:
        """Detect the burst, seed the timing loop, and locate Preamble B."""
        beats = rxfront.rx_slice_beats(waveform)
        n_beats = len(beats)
        rx_cfg = self.cfg.rx
        detect_beat = None
        chunk = 32
        for start in range(0, n_beats, chunk):
            X = rxfront.beat_spectra(beats[start : start + chunk], self.h_rx)
            hits = np.flatnonzero(rxfront.detect_frame(X, rx_cfg.detect_threshold).detected)
            if hits.size:
                detect_beat = start + int(hits[0])
                break
        if detect_beat is None or detect_beat + 2 >= n_beats:
            raise DetectionError("no burst detected in the waveform")

        # The detection chunk already holds the spectra of the first
        # acquisition beats; only the beats past its end are transformed.
        first_beat = detect_beat + 1
        last_beat = min(first_beat + rx_cfg.acquire_beats, n_beats)
        chunk_end = start + len(X)
        X_acq = X[first_beat - start : last_beat - start]
        if last_beat > chunk_end:
            tail = rxfront.beat_spectra(beats[chunk_end:last_beat], self.h_rx)
            X_acq = np.concatenate([X_acq, tail])

        tau0, _ = rxfront.estimate_initial_spo(X_acq[0])
        t = self.cfg.timing
        loop = FdtrLoop(kp=t.kp, ki=t.ki, alpha=self.cfg.tx.rrc_rolloff, tau=tau0)
        blocks = fft_pow2(eq.strip_rolloff(loop.process_beat(X_acq)), inverse=True)
        sync = framesync.find_sync(
            blocks[:, txchain.OVERLAP_IN:].real.reshape(-1), self.pn,
            ratio_min=rx_cfg.sync_ratio_min,
            offset=txchain.SYMBOLS_PER_BEAT * first_beat + txchain.OVERLAP_IN,
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
        last_needed = 2 + self.n_c_beats + n_pay_beats
        if last_needed > len(beats):
            raise SyncError("waveform too short past the sync position")
        X = rxfront.beat_spectra(beats[:last_needed], self.h_rx)

        loop = acq.loop
        loop.tau -= acq.sync.frac
        # Preamble B only drives the timing loop; the rest is folded to 128 bins.
        Y = eq.strip_rolloff(loop.process_beat(X[1:])[1:])
        y_train, y_pay = Y[: self.n_c_beats], Y[self.n_c_beats :]
        eq_cfg = self.cfg.equalizer
        state = eq.FdeState(mu=eq_cfg.mu)
        if eq_cfg.mmse_init:
            state.initialize(y_train, self.c_ref)

        if eq_cfg.ddlms:
            z, bits = eq.ddlms_update(state, y_pay)
        else:
            Z = eq.apply_fde(y_pay, state.W)
            z = fft_pow2(Z, inverse=True)[:, txchain.OVERLAP_IN :]
            bits = eq.decide_demap(z, state.threshold)

        return DemodResult(
            payload_bits=bits.reshape(-1)[: self.layout.payload_len],
            mse_trace=metrics.mse_point(z, bits).tolist(),
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
            (1 if beat < split else 2, beat, tau / txchain.SPS)
            for beat, tau in enumerate(trace)
        ]
