"""Burst-mode frequency-domain timing recovery.

The feedback loop has four parts, mirroring the hardware flow:

* a Godard-style error detector that correlates the spectral excess band with
  its alias one symbol rate away.  On the 144-bin grid at 1.125 samples per
  symbol the alias partner of bin ``k`` is ``k + 16``, so both bins carry the
  *same* transmitted frequency content and their product's imaginary part is
  an odd function of the sampling-phase error;
* a proportional-integral loop filter;
* a numerically controlled oscillator, the accumulator ``tau <- tau + W``.
  The paper's Mod-1 form is not modelled: its fractional interval ``eta/W``
  is unbounded for small control words, and closed-loop it decoded at a BER
  of about 0.49 even on a noiseless channel;
* a frequency-domain interpolator multiplying bin ``k`` by
  ``exp(-2j pi f_k tau)``.

The loop filter consumes a normalized error (the raw detector sum divided by
the summed pairing magnitude), so the gains are dimensionless and a detector
value of ``-sin(2 pi residual_ui)`` drives the accumulator in samples.

On random payload the detector has an irreducible per-beat self-noise of
roughly 8e-2 normalized: the 144-sample analysis window truncates pulse tails
at its edges, so the paired bins see slightly different data mixtures.  Pure
preamble-A beats are block-periodic and show no such noise.  Loop gains trade
acquisition speed against this jitter; see the config defaults.
"""

from dataclasses import dataclass, field
from math import ceil, floor

import numpy as np

from .txchain import FREQ_SYMBOL_144, N_OUT, SPS

ALIAS_STRIDE = 16  # N - N/sps = 144 - 128


def godard_band(alpha: float = 0.1) -> np.ndarray:
    """Integer bin range [ceil((1-a)K), floor((1+a)K)-1] with K = N/(2 sps)."""
    k_center = N_OUT / (2 * SPS)
    lo = ceil((1 - alpha) * k_center)
    hi = floor((1 + alpha) * k_center) - 1
    return np.arange(lo, hi + 1)


def godard_error(X: np.ndarray, alpha: float = 0.1) -> tuple[float, float]:
    """Detector sums over the excess band of a 144-bin spectrum.

    Returns ``(sum Im[P], sum |P|)`` with ``P = X(k) conj(X(k+16))``: the raw
    timing error and the pairing magnitude that normalizes it.
    """
    k = godard_band(alpha)
    pair = X[k] * np.conj(X[k + ALIAS_STRIDE])
    return float(np.sum(pair.imag)), float(np.sum(np.abs(pair)))


@dataclass
class LoopFilterState:
    """Proportional-integral filter with a running error accumulator."""

    kp: float = 1e-2
    ki: float = 1e-4
    accumulator: float = 0.0


def loop_filter_step(state: LoopFilterState, e: float) -> float:
    """W = kp*e + ki*(accumulated error including the current one)."""
    state.accumulator += e
    return state.kp * e + state.ki * state.accumulator


def fd_interpolate(X: np.ndarray, tau_samples: float) -> np.ndarray:
    """Fractional-delay rotation: bin k times exp(-2j pi f_k tau).

    ``X`` is a 144-bin spectrum; ``f_k`` is k/144 for k <= 72 and
    (k-144)/144 above, in cycles per sample.
    """
    f = FREQ_SYMBOL_144 / SPS
    return np.asarray(X) * np.exp(-2j * np.pi * f * tau_samples)


@dataclass
class FdtrConfig:
    kp: float = 1e-2
    ki: float = 1e-4
    alpha: float = 0.1
    deadzone: float = 0.0


@dataclass
class FdtrLoop:
    """Per-burst feedback state: strictly sequential, one owner."""

    cfg: FdtrConfig = field(default_factory=FdtrConfig)
    tau: float = 0.0                     # samples at 1.125 sps
    lf: LoopFilterState = None
    trace: list = field(default_factory=list)
    beat_count: int = 0

    def __post_init__(self):
        if self.lf is None:
            self.lf = LoopFilterState(kp=self.cfg.kp, ki=self.cfg.ki)

    def process_beat(
        self,
        X: np.ndarray,
        tau_init: float | None = None,
        sync_frac: float | None = None,
    ) -> np.ndarray:
        """Correct one beat spectrum and update the loop from its error.

        ``tau_init`` seeds the correction from the feed-forward estimate on the
        first call; ``sync_frac`` folds in the frame-sync fractional residue.
        The returned spectrum is corrected with the timing of this beat; the
        error it exhibits only moves tau for later beats (strict causality).
        """
        if tau_init is not None:
            self.tau = float(tau_init)
        if sync_frac is not None:
            self.tau -= float(sync_frac)
        corrected = fd_interpolate(X, self.tau)
        self.trace.append((self.beat_count, self.tau))
        self.beat_count += 1
        e_raw, mag = godard_error(corrected, self.cfg.alpha)
        e = e_raw / mag if mag > 0 else 0.0
        if abs(e) < self.cfg.deadzone:
            e = 0.0
        self.tau += loop_filter_step(self.lf, e)
        return corrected
