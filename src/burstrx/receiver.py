"""Burst receiver orchestration: acquisition, synchronization, demodulation.

Reception happens in two stages over the sampled waveform:

* **Acquisition** first rejects, as a detection failure, a capture with a
  non-finite sample or more energy than :data:`ENERGY_LIMIT`: one sum of
  squares over the capture, read as float64.  It then looks for the
  Preamble-A tone peak in passes over the
  beat grid that starts at sample 0 (see :func:`rxfront.rx_slice_beats`).
  Pass ``k`` slices, transforms and tests the chunk of 32 beats from beat
  ``32 k`` and the window a detection on the chunk's last beat would need;
  only hits in the chunk count.  The window of the first detected beat is a
  slice of that pass's spectra and detection mask, and one window feeds
  both tau0 and stage 1: the detected beat and the
  ``ceil((preamble_a_len + preamble_b_len) / 96) + 21`` beats after it (25
  beats for the default frame).  tau0 is the tone-pair phase summed over
  the window beats that pass detection.  Stage 1 runs at tau0: starting at
  the detected beat, every window beat is corrected by tau0 alone, with no
  tracking, folded to 65 bins and inverse transformed, and the 96 valid
  symbols of each are joined into the 1-sps stream that frame
  synchronization scans for Preamble B.  Detection may fire on the first
  beat of Preamble A, so the window always reaches past Preamble B, however
  long Preamble A is; the margin past it covers a false alarm in the
  leading gap (see :data:`ACQUIRE_MARGIN_BEATS`).  When sync finds no
  Preamble B there, the acquisition holds no sync position, and the
  ``sync_failed`` report still carries the detected beat and tau0.  The
  report's ``spo_trace`` holds the stage-2 taus, one per stage-2 beat.

* **Synchronized demodulation** re-slices the waveform so beat boundaries
  align with the frame: the sync position ``p = floor(p1 * 1.125)`` is the
  capture sample where Preamble B's body starts, and the beat grid
  restarts there.  Preamble B is
  the first beat, the training block the next eight, and each payload beat
  holds 96 payload bits.  Stage 2 slices and transforms just those beats,
  and has its own taus: one line per burst, fitted to the timing-detector
  sums of that stack (:func:`timing.estimate_taus`), on the branch nearest tau0
  less the fractional residue of ``p1 * 1.125``.  No other state passes
  from stage 1.  One call corrects the whole stack; the eight folded
  training beats fit the equalizer taps against the known Preamble-C
  symbols (see :func:`equalizer.fit_taps`): every lag of
  :data:`equalizer.LAGS` with tap initialization on, lag 0 alone (a gain)
  with it off, so the output levels are {0, 1} in every setting.  The
  payload beats are equalized and inverse transformed, and their valid
  positions 32..127 are the time samples ``z`` that are decided against a
  fixed 0.5; ``z`` is real, as the beats' samples and the taps are.  Each
  payload symbol gets one decision, the bit the receiver outputs: DD-LMS
  forms its error against it and the MSE trace, scored over all payload
  beats at once, measures ``z`` against it.

Every signal in the chain is real, so every spectrum is a half spectrum:
from :func:`rxfront.beat_spectra` on, a beat is the 73 bins 0..72 of its
144-point FFT, and a folded block the 65 bins 0..64 of its 128-point FFT.
Each inverse transform is an ``irfft`` to real samples (see
:mod:`burstrx.fourier`).

Every stage runs as one call over a stack of beats.  Each stage-2 stack is
beats-major, one beat per contiguous row: the beat spectra, corrected in
place by :func:`timing.fd_interpolate`, the folded spectra and the
equalized samples, since every stage after the correction walks the stack
beat by beat.  One recursion inside those calls carries state from beat to
beat, the DD-LMS taps.  With DD-LMS off the taps are fixed, so all payload
beats are equalized in one multiply and decided in one
:func:`equalizer.decide_demap` call.  With it on, one
:func:`equalizer.ddlms_update` call runs the whole payload.  A tap gradient
lands ``equalizer.DDLMS_DELAY`` = 242 beats after the beat that formed it, as
in the hardware's error path, so the taps of each block of 242 beats are known
when the block starts and the block is processed in one pass.

Stage 2 holds the only arrays that span a burst, because the timing line
needs the detector sum of every beat before it corrects the first.  On the
default frame (1 364 beats) they are the beat spectra, 1.6 MB, corrected in
place and released once folded; the folded spectra, 1.4 MB, released once
the payload is decided; and the equalized samples and decided bits, 1.0
and 0.1 MB, which the MSE trace reads.  No stack outlives the stage that
reads it, so a call of :meth:`BurstReceiver.demodulate` peaks at about
3.4 MB of transient memory.  Acquisition holds one pass of beats, and a burst's
capture and its decided payload are the caller's.

Both ends shape with the same RRC response, each with the default 16-symbol
linear-phase delay.  Index bookkeeping: stage-1 symbol ``m`` is the one at
capture sample ``1.125 m``, and the matched filter pair delays the stream by
32 symbols, so it is transmit symbol ``m - 32`` for a gap-free, offset-free
channel.  All of this is absorbed by the measured ``p1``; nothing downstream
needs the gap or channel delay.
"""

from dataclasses import dataclass
from typing import Optional

import numpy as np

from . import equalizer as eq
from . import framesync, framing, metrics, rxfront, txchain
from .config import SimConfig
from .errors import DetectionError, SyncError
from .fourier import fft_pow2
from .timing import FdtrLoop, fd_interpolate

# Acquisition beats past the end of Preamble B.  A detection on the frame's own
# tone needs at most one; the rest keep Preamble B in the window after a false
# alarm in the leading gap, which RRC-shaped white noise raises on about
# 3.6e-4 of its beats.
ACQUIRE_MARGIN_BEATS = 21
DETECT_CHUNK = 32          # beats tested for the Preamble-A tone per pass
# The largest capture energy acquisition accepts.  A beat's power in any bin
# is at most 144 times its samples' energy (the receive RRC is at most 1),
# and a stack's sum of beat powers at most 144 * 4/3 times the capture's
# energy, so under this limit every power and every sum of them stays finite.
ENERGY_LIMIT = np.finfo(np.float64).max / 2**20


@dataclass
class Acquisition:
    detect_beat: int                # first beat that passed detection; stage 1 starts here
    tau0: float                     # tone-pair phase over the window, stage 1's correction, samples
    sync: Optional[framesync.SyncResult]  # Preamble B in the stage-1 stream; None if not found


@dataclass
class DemodResult:
    payload_bits: np.ndarray        # one decision per payload symbol
    mse_trace: list                 # squared decision error per payload beat
    taus: np.ndarray                # tau used on each stage-2 beat, samples


class BurstReceiver:
    """One receiver instance per configuration; stateless across bursts."""

    def __init__(self, cfg: SimConfig):
        self.cfg = cfg
        self.layout = cfg.frame
        self.h_rx = txchain.rrc_response(cfg.tx.rrc_rolloff)
        # the references are the sent symbols: bipolar Pn, and a view of Preamble C
        head = framing.fixed_preamble(self.layout)
        b0 = self.layout.preamble_a_len
        self.pn = 2.0 * head[b0 : b0 + framing.PN_LEN] - 1.0
        self.c_ref = head[b0 + self.layout.preamble_b_len :].reshape(-1, txchain.SYMBOLS_PER_BEAT)
        self.n_c_beats = len(self.c_ref)
        preamble_ab = self.layout.preamble_a_len + self.layout.preamble_b_len
        self.acquire_beats = -(-preamble_ab // txchain.SYMBOLS_PER_BEAT) + ACQUIRE_MARGIN_BEATS

    def tx_waveform(self, symbols: np.ndarray) -> np.ndarray:
        return txchain.tx_frame(symbols, self.cfg.tx.rrc_rolloff)

    def acquire(self, waveform: np.ndarray) -> Acquisition:
        """Detect the burst, estimate tau0, and locate Preamble B.

        Raises :class:`DetectionError` when no beat passes detection, and
        before any transform when the capture, read as float64, holds a
        non-finite sample or more energy than :data:`ENERGY_LIMIT`; a window
        in which sync finds no Preamble B gives ``sync`` None.
        """
        waveform = np.asarray(waveform, dtype=np.float64)
        # one reduction for both: a NaN or infinite sample, or an energy past
        # float64, makes it NaN or infinite
        with np.errstate(over="ignore"):
            if not waveform @ waveform <= ENERGY_LIMIT:
                raise DetectionError("the capture holds a non-finite sample or too much energy")
        # A pass holds its chunk and the window of a detection on its last beat.
        for start in range(0, len(waveform) // txchain.SAMPLES_PER_BEAT, DETECT_CHUNK):
            beats = rxfront.rx_slice_beats(
                waveform, txchain.SAMPLES_PER_BEAT * start, DETECT_CHUNK + self.acquire_beats
            )
            X = rxfront.beat_spectra(beats, self.h_rx)
            tone = rxfront.detect_frame(X)
            hits = np.flatnonzero(tone[:DETECT_CHUNK])
            if hits.size:
                break
        else:
            raise DetectionError("no burst detected in the waveform")

        detect_beat = start + int(hits[0])
        window = slice(hits[0], hits[0] + 1 + self.acquire_beats)
        tau0 = rxfront.estimate_initial_spo(X[window][tone[window]])
        blocks = fft_pow2(eq.strip_rolloff(fd_interpolate(X[window], tau0)), inverse=True)
        try:
            sync = framesync.find_sync(
                blocks[:, txchain.OVERLAP_IN:].reshape(-1), self.pn,
                offset=txchain.SYMBOLS_PER_BEAT * detect_beat,
            )
        except SyncError:
            sync = None
        return Acquisition(detect_beat=detect_beat, tau0=tau0, sync=sync)

    def demodulate(self, waveform: np.ndarray, acq: Acquisition) -> DemodResult:
        """Frame-aligned pass: training, equalization, payload decisions."""
        if acq.sync is None:
            raise SyncError("no Preamble B in the acquisition window")
        # Preamble B's body starts at the sync position; its window reaches
        # one overlap before that.
        start = acq.sync.p
        if start < txchain.OVERLAP_OUT:
            raise SyncError(f"sync position {start} puts Preamble B before the capture")
        n_pay_beats = -(-self.layout.payload_len // txchain.SYMBOLS_PER_BEAT)
        n_rows = 1 + self.n_c_beats + n_pay_beats
        beats = rxfront.rx_slice_beats(waveform, start, n_rows)
        if len(beats) < n_rows:
            raise SyncError("waveform too short past the sync position")
        X = rxfront.beat_spectra(beats, self.h_rx)

        fdtr = FdtrLoop(alpha=self.cfg.tx.rrc_rolloff, tau_ref=acq.tau0 - acq.sync.frac)
        taus = fdtr.process_beat(X, out=X)[1]
        # Preamble B only feeds the timing estimate; the rest is folded to 128 bins.
        Y = eq.strip_rolloff(X[1:])
        del X  # not held through the equalizer: 1.6 MB on the default frame
        eq_cfg = self.cfg.equalizer
        state = eq.FdeState()
        # Without tap initialization the fit is lag 0 alone, a gain.
        state.initialize(Y[: self.n_c_beats], self.c_ref, eq.LAGS if eq_cfg.mmse_init else [0])

        if eq_cfg.ddlms:
            z, bits = eq.ddlms_update(state, Y[self.n_c_beats :])
        else:
            z = eq.equalize(Y[self.n_c_beats :], state.w)
            bits = eq.decide_demap(z)
        del Y  # not held through the MSE trace: 1.4 MB on the default frame

        return DemodResult(
            payload_bits=bits.reshape(-1)[: self.layout.payload_len],
            mse_trace=metrics.mse_point(z, bits).tolist(),
            taus=taus,
        )

    def receive(self, waveform: np.ndarray, payload_bits: np.ndarray) -> metrics.RunReport:
        """Full chain with structured failure reporting.

        The report holds what this burst produced, as JSON values; a failure
        is its ``status``, with the fields filled up to the failed stage.
        """
        report = metrics.RunReport()
        try:
            acq = self.acquire(waveform)
            report.detect_beat = acq.detect_beat
            report.tau0 = acq.tau0
            if acq.sync is not None:
                report.sync_p1 = acq.sync.p1
                report.sync_p = acq.sync.p
                report.sync_frac = acq.sync.frac
                report.sync_peak = acq.sync.peak_value
                report.sync_second_peak = acq.sync.second_peak_value
            demod = self.demodulate(waveform, acq)
        except DetectionError:
            report.status = "detection_failed"
            return report
        except SyncError:
            report.status = "sync_failed"
            return report
        report.spo_trace = (demod.taus / txchain.SPS).tolist()
        ber = metrics.count_ber(demod.payload_bits, payload_bits)
        hist = metrics.error_distribution(ber.positions, self.layout.payload_len)
        report.ber = ber.ber
        report.bit_errors = ber.errors
        report.bits_total = ber.total
        report.error_histogram = hist.counts.tolist()
        report.chi2_stat = hist.chi2_stat
        report.chi2_p = hist.p_value
        report.mse_trace = demod.mse_trace
        return report

