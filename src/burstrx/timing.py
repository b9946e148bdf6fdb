"""Burst-mode frequency-domain timing recovery.

The feedback loop has four parts, mirroring the hardware flow:

* a Godard-style error detector that correlates the spectral excess band with
  its alias one symbol rate away.  On the 144-bin grid at 1.125 samples per
  symbol the alias partner of bin ``k`` is ``k + 16``, so both bins carry the
  *same* transmitted frequency content and their product's imaginary part is
  an odd function of the sampling-phase error;
* a proportional-integral loop filter and a numerically controlled
  oscillator, the accumulator ``tau <- tau + W``; both are the one method
  :meth:`FdtrLoop.update`.  The paper's Mod-1 form is not modelled: its
  fractional interval ``eta/W`` is unbounded for small control words, and
  closed-loop it decoded at a BER of about 0.49 even on a noiseless channel;
* a frequency-domain interpolator multiplying bin ``k`` by
  ``exp(-2j pi f_k tau)``.

The loop filter consumes a normalized error (the raw detector sum divided by
the summed pairing magnitude), so the gains are dimensionless and a detector
value of ``-sin(2 pi residual_ui)`` drives the accumulator in samples.
:class:`FdtrLoop` holds the whole per-burst state: the gains, the detector
band's roll-off, tau, the error integral and the per-beat tau trace.

The detector reads the corrected spectrum, but correcting by ``tau`` only
rotates each pair product by ``exp(-2j pi (f_k - f_(k+16)) tau)``, a phase
shared by every pair with the same frequency difference, and leaves ``|P|``
alone.  So :meth:`FdtrLoop.process_beat` takes the detector sums of a whole
stack of beats at once, runs the recursion on a few complex scalars per
beat, and corrects the stack in one call.

On random payload the detector has an irreducible per-beat self-noise of
roughly 8e-2 normalized: the 144-sample analysis window truncates pulse tails
at its edges, so the paired bins see slightly different data mixtures.  Pure
preamble-A beats are block-periodic and show no such noise.  Loop gains trade
acquisition speed against this jitter; see the config defaults.
"""

from dataclasses import dataclass, field
from cmath import exp as cexp
from math import ceil, floor, pi

import numpy as np

from .txchain import FREQ_SYMBOL_144, N_IN, N_OUT, SPS

ALIAS_STRIDE = 16  # N - N/sps = 144 - 128


def godard_band(alpha: float = 0.1) -> np.ndarray:
    """Integer bin range [ceil((1-a)K), floor((1+a)K)-1] with K = N/(2 sps)."""
    k_center = N_OUT / (2 * SPS)
    lo = ceil((1 - alpha) * k_center)
    hi = floor((1 + alpha) * k_center) - 1
    return np.arange(lo, hi + 1)


def _pair_freq_diffs(alpha: float) -> tuple[np.ndarray, np.ndarray]:
    """Band bins ``k`` and ``f_k - f_(k+16)`` for each, in 144-point bins."""
    k = godard_band(alpha)
    bins = FREQ_SYMBOL_144 * N_IN   # exactly k up to 72, k - 144 above
    return k, bins[k] - bins[k + ALIAS_STRIDE]


def godard_pair_freqs(alpha: float = 0.1) -> np.ndarray:
    """Distinct ``f_k - f_(k+16)`` over the detector band, in cycles per sample.

    Correcting a spectrum by ``tau`` multiplies the pair product of bin ``k``
    by ``exp(-2j pi (f_k - f_(k+16)) tau)``.  The difference is 8/9 for every
    band bin but 56, whose partner is the Nyquist bin 72 (-1/9); bin 56 is in
    the band only at roll-off 0.125.
    """
    return np.unique(_pair_freq_diffs(alpha)[1]) / N_OUT


def godard_error(X: np.ndarray, alpha: float = 0.1) -> tuple[np.ndarray, np.ndarray]:
    """Detector sums over the excess band of 144-bin spectra, per row.

    With ``P = X(k) conj(X(k+16))`` returns ``(S, sum |P|)``, where ``S[..., g]``
    sums ``P`` over the pairs whose frequency difference is
    ``godard_pair_freqs(alpha)[g]``.  The raw timing error of ``X`` is
    ``Im sum_g S[..., g]``; that of ``X`` corrected by ``tau`` is
    ``Im sum_g S[..., g] exp(-2j pi df_g tau)``.  ``sum |P|`` normalizes it and
    does not depend on ``tau``.
    """
    X = np.asarray(X)
    k, diffs = _pair_freq_diffs(alpha)
    pair = X[..., k] * np.conj(X[..., k + ALIAS_STRIDE])
    sums = np.stack([pair[..., diffs == d].sum(axis=-1) for d in np.unique(diffs)], axis=-1)
    return sums, np.sum(np.abs(pair), axis=-1)


def fd_interpolate(X: np.ndarray, tau_samples) -> np.ndarray:
    """Fractional-delay rotation: bin k times exp(-2j pi f_k tau).

    ``X`` holds 144-bin spectra on its last axis; ``f_k`` is k/144 for
    k <= 72 and (k-144)/144 above, in cycles per sample.  ``tau_samples``
    broadcasts against ``X``, so a ``(n, 1)`` column corrects each row of an
    ``(n, 144)`` stack by its own tau.
    """
    f = FREQ_SYMBOL_144 / SPS
    return np.asarray(X) * np.exp(-2j * np.pi * f * np.asarray(tau_samples))


@dataclass
class FdtrLoop:
    """Per-burst feedback state: strictly sequential, one owner."""

    kp: float = 1e-2
    ki: float = 1e-4
    alpha: float = 0.1                   # RRC roll-off: sets the detector band
    tau: float = 0.0                     # samples at 1.125 sps
    integral: float = 0.0                # running sum of normalized errors
    trace: list = field(default_factory=list)   # tau used on each beat

    def update(self, e: float) -> None:
        """PI step: tau moves by kp*e + ki*(error sum including e)."""
        self.integral += e
        self.tau += self.kp * e + self.ki * self.integral

    def process_beat(self, X: np.ndarray) -> np.ndarray:
        """Correct a stack of beat spectra in order, updating the loop per beat.

        ``X`` has shape ``(..., 144)``, one beat per row in time order.  Each
        row is corrected with the tau of its own beat; the error it exhibits
        only moves tau for later rows (strict causality).  The detector sums
        are taken once over the uncorrected stack, so the recursion rotates a
        few complex sums per beat, and the correction runs once at the end.
        """
        X = np.asarray(X)
        sums, mags = godard_error(X.reshape(-1, N_OUT), self.alpha)
        steps = [-2j * pi * df for df in godard_pair_freqs(self.alpha)]
        taus = []
        for row, mag in zip(sums.tolist(), mags.tolist()):
            taus.append(self.tau)
            err = sum(s * cexp(step * self.tau) for s, step in zip(row, steps))
            self.update(err.imag / mag if mag > 0 else 0.0)
        self.trace.extend(taus)
        return fd_interpolate(X, np.reshape(taus, X.shape[:-1] + (1,)))
