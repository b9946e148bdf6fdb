"""Frame synchronization on the 1-sps symbol stream via Pn correlation.

Sliding the 32-symbol bipolar Pn across the stream yields one correlation
``c(p)`` per offset, and combining them with the block signs ``[1, 1, -1]``
gives the metric of every placement:

    M(p) = c(p) + c(p+32) - c(p+64)

A clean Preamble B at offset p scores 96 (three aligned 32-chip
correlations).  The receiver's symbol estimates are mean-removed and doubled
before correlating so the unipolar {0, 1} alphabet lines up with the bipolar
Pn; the argmax is invariant to positive gain either way.

The synchronization position at 1.125 sps is ``p = floor(p1 * 1.125)`` and
the fractional remainder of ``p1 * 1.125`` is handed to the timing loop.
"""

import math
from dataclasses import dataclass

import numpy as np

from .errors import SyncError
from .txchain import SPS

SYNC_RATIO_MIN = 1.5  # the peak over the largest |M| of every other placement


@dataclass
class SyncResult:
    p1: int                 # position at 1 sps
    peak_value: float
    second_peak_value: float

    @property
    def p(self) -> int:
        """``floor(p1 * 1.125)``, the position at 1.125 sps."""
        return math.floor(self.p1 * SPS)

    @property
    def frac(self) -> float:
        """Fractional residue of ``p1 * 1.125``, compensated by the FDTR."""
        return self.p1 * SPS - self.p


def bipolarize(symbols: np.ndarray) -> np.ndarray:
    """Mean-removed, doubled symbol estimates: {0,1} maps onto +-1."""
    symbols = np.asarray(symbols, dtype=np.float64)
    return 2.0 * (symbols - symbols.mean())


def metric_stream(s: np.ndarray, pn: np.ndarray) -> np.ndarray:
    """M(p) for every placement p in a bipolar symbol stream.

    Correlates the stream with Pn and combines the correlations 32 and 64
    symbols apart with the block signs ``[1, 1, -1]``.  Raises
    :class:`SyncError` when the stream holds no complete placement.
    """
    c = np.correlate(
        np.asarray(s, dtype=np.float64), np.asarray(pn, dtype=np.float64), mode="valid"
    )
    if len(c) < 65:
        raise SyncError("stream too short for the sync metric")
    return c[:-64] + c[32:-32] - c[64:]


def find_sync(symbols: np.ndarray, pn: np.ndarray, offset: int = 0) -> SyncResult:
    """Locate Preamble B in a recovered 1-sps symbol stream.

    ``offset`` is added to the local argmax so ``p1`` is reported in the
    caller's absolute stream coordinates.  Raises :class:`SyncError` when the
    peak does not dominate every other placement by ``SYNC_RATIO_MIN``.
    """
    m = metric_stream(bipolarize(symbols), pn)
    p_local = int(np.argmax(m))
    peak = float(m[p_local])
    # every other placement's |M|; the peak's own slot reads 0, the value
    # of an empty rest
    rest = np.abs(m)
    rest[p_local] = 0.0
    second = float(rest.max())
    if peak <= 0 or (second > 0 and peak / second < SYNC_RATIO_MIN):
        raise SyncError(
            f"sync peak ratio {peak / max(second, 1e-12):.2f} below {SYNC_RATIO_MIN}"
        )
    return SyncResult(p1=p_local + offset, peak_value=peak, second_peak_value=second)
